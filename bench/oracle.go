package main

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"armada"
)

// preloadOracle answers "which preloaded objects lie in this box" without a
// lock: preloaded objects are never unpublished, so the set is fixed for
// the whole run. Objects are ordered by first attribute; a box answer is
// the count of matches and a sum of their mixed indices, which a result is
// checked against object by object without sorting it.
type preloadOracle struct {
	attrs  int
	byVal  []int32   // preload indices, ascending first attribute
	val0   []float64 // first attribute, same order
	prefix []uint64  // prefix[i] = sum of mix(byVal[:i])
	objs   []object
}

// mix spreads an object index over 64 bits (splitmix64), so that a sum of
// mixed indices identifies a set of objects.
func mix(i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newPreloadOracle(objs []object, attrs int) *preloadOracle {
	o := &preloadOracle{attrs: attrs, objs: objs, byVal: make([]int32, len(objs))}
	for i := range o.byVal {
		o.byVal[i] = int32(i)
	}
	slices.SortFunc(o.byVal, func(a, b int32) int { return cmp.Compare(objs[a].vals[0], objs[b].vals[0]) })
	o.val0 = make([]float64, len(objs))
	o.prefix = make([]uint64, len(objs)+1)
	for i, idx := range o.byVal {
		o.val0[i] = objs[idx].vals[0]
		o.prefix[i+1] = o.prefix[i] + mix(int(idx))
	}
	return o
}

// expect returns the number of preloaded objects inside the box and the sum
// of their mixed indices.
func (o *preloadOracle) expect(r *fixedRange) (count int, sum uint64) {
	lo := sort.SearchFloat64s(o.val0, r.lo[0])
	hi := sort.Search(len(o.val0), func(i int) bool { return o.val0[i] > r.hi[0] })
	if o.attrs == 1 {
		return hi - lo, o.prefix[hi] - o.prefix[lo]
	}
	for _, idx := range o.byVal[lo:hi] {
		if v := o.objs[idx].vals[1]; v >= r.lo[1] && v <= r.hi[1] {
			count++
			sum += mix(int(idx))
		}
	}
	return count, sum
}

// preloadIndex parses the index out of a preloaded object's name ("p123");
// ok is false for a name a client published.
func preloadIndex(name string) (idx int, ok bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	for _, c := range []byte(name[1:]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return idx, true
}

// tally is what checkObjects saw of the preloaded objects in a result (or
// in the pages of one walk), to compare with preloadOracle.expect.
type tally struct {
	count int
	sum   uint64
}

// checkObjects is the inline check of a range, page or top-k result: every
// object lies inside the box and (for ranges and pages) objects ascend by
// (ID, Name). It adds the preloaded objects it saw to t. With full, a
// preloaded object must also carry the values it was published with; that
// reads the preload at random and costs more than the rest together, so
// only sampled results pay it.
func (o *preloadOracle) checkObjects(objs []armada.Object, r *fixedRange, sorted, full bool, t *tally) error {
	for i := range objs {
		ob := &objs[i]
		if len(ob.Values) != o.attrs {
			return fmt.Errorf("object %q has %d values, want %d", ob.Name, len(ob.Values), o.attrs)
		}
		for a, v := range ob.Values {
			if v < r.lo[a] || v > r.hi[a] {
				return fmt.Errorf("object %q value %v outside [%v, %v]", ob.Name, v, r.lo[a], r.hi[a])
			}
		}
		if sorted && i > 0 {
			if p := &objs[i-1]; p.ID > ob.ID || (p.ID == ob.ID && p.Name > ob.Name) {
				return fmt.Errorf("objects %q, %q out of (ID, Name) order", p.Name, ob.Name)
			}
		}
		if idx, ok := preloadIndex(ob.Name); ok {
			if idx >= len(o.objs) {
				return fmt.Errorf("unknown preloaded object %q", ob.Name)
			}
			for a, v := range ob.Values {
				if full && v != o.objs[idx].vals[a] {
					return fmt.Errorf("object %q value %v, published with %v", ob.Name, v, o.objs[idx].vals[a])
				}
			}
			t.count++
			t.sum += mix(idx)
		}
	}
	return nil
}

// matches compares a finished tally with the oracle's answer for the box.
func (o *preloadOracle) matches(r *fixedRange, t tally) error {
	if count, sum := o.expect(r); count != t.count || sum != t.sum {
		return fmt.Errorf("result holds %d preloaded objects (sum %x), oracle %d (sum %x)", t.count, t.sum, count, sum)
	}
	return nil
}

// liveOracle is the flat sorted slice of every live object, built once the
// run has quiesced: the preload plus what each generator still has
// published.
type liveOracle struct {
	attrs int
	objs  []object // ascending (first attribute, name)
}

func newLiveOracle(in *inputs, gens ...*generator) *liveOracle {
	objs := slices.Clone(in.preload)
	for _, g := range gens {
		objs = append(objs, g.live...)
	}
	slices.SortFunc(objs, func(a, b object) int {
		return cmp.Or(cmp.Compare(a.vals[0], b.vals[0]), cmp.Compare(a.name, b.name))
	})
	return &liveOracle{attrs: len(in.w.attrs), objs: objs}
}

// inBox returns the live objects inside the box, ascending by name.
func (o *liveOracle) inBox(r *fixedRange) []object {
	lo := sort.Search(len(o.objs), func(i int) bool { return o.objs[i].vals[0] >= r.lo[0] })
	var out []object
	for _, ob := range o.objs[lo:] {
		if ob.vals[0] > r.hi[0] {
			break
		}
		if o.attrs == 1 || (ob.vals[1] >= r.lo[1] && ob.vals[1] <= r.hi[1]) {
			out = append(out, ob)
		}
	}
	slices.SortFunc(out, func(a, b object) int { return cmp.Compare(a.name, b.name) })
	return out
}

// objectsOf converts a result's objects for comparison, ascending by name.
func objectsOf(objs []armada.Object) []object {
	out := make([]object, len(objs))
	for i, ob := range objs {
		out[i].name = ob.Name
		copy(out[i].vals[:], ob.Values)
	}
	slices.SortFunc(out, func(a, b object) int { return cmp.Compare(a.name, b.name) })
	return out
}

// equalBox requires a range result (or the concatenated pages of a walk) to
// be exactly the live objects inside the box.
func (o *liveOracle) equalBox(r *fixedRange, got []armada.Object) error {
	want, have := o.inBox(r), objectsOf(got)
	if !slices.Equal(want, have) {
		return fmt.Errorf("box %v: got %d objects, oracle has %d (first difference at %d)",
			*r, len(have), len(want), firstDiff(want, have))
	}
	return nil
}

func firstDiff(a, b []object) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// equalTopK requires a top-k result to carry the k largest first-attribute
// values inside the box, every object live and in the box.
func (o *liveOracle) equalTopK(r *fixedRange, k int, got []armada.Object) error {
	want := o.inBox(r)
	slices.SortFunc(want, func(a, b object) int { return cmp.Compare(b.vals[0], a.vals[0]) })
	want = want[:min(k, len(want))]
	if len(got) != len(want) {
		return fmt.Errorf("top-%d of box %v: got %d objects, oracle has %d", k, *r, len(got), len(want))
	}
	for i, ob := range got {
		if ob.Values[0] != want[i].vals[0] {
			return fmt.Errorf("top-%d of box %v: rank %d has value %v, oracle %v", k, *r, i, ob.Values[0], want[i].vals[0])
		}
		if !o.live(ob) {
			return fmt.Errorf("top-%d of box %v: object %q is not live", k, *r, ob.Name)
		}
	}
	return nil
}

// live reports whether the object is in the oracle with these values.
func (o *liveOracle) live(ob armada.Object) bool {
	var want object
	want.name = ob.Name
	copy(want.vals[:], ob.Values)
	i, found := slices.BinarySearchFunc(o.objs, want, func(a, b object) int {
		return cmp.Or(cmp.Compare(a.vals[0], b.vals[0]), cmp.Compare(a.name, b.name))
	})
	return found && o.objs[i] == want
}

// equalLookup requires a value lookup to return every live object with
// exactly these values and nothing that is not live. On one attribute the
// value lattice (see quantum) makes that the whole answer; on two, another
// live object may share the target's ObjectID and come back as well.
func (o *liveOracle) equalLookup(vals [2]float64, got []armada.Object) error {
	r := fixedRange{lo: vals, hi: vals}
	want, have := o.inBox(&r), objectsOf(got)
	if o.attrs == 1 {
		if !slices.Equal(want, have) {
			return fmt.Errorf("lookup %v: got %d objects, oracle has %d", vals, len(have), len(want))
		}
		return nil
	}
	for _, w := range want {
		if !slices.Contains(have, w) {
			return fmt.Errorf("lookup %v: live object %q missing", vals, w.name)
		}
	}
	for _, ob := range got {
		if !o.live(ob) {
			return fmt.Errorf("lookup %v: object %q is not live", vals, ob.Name)
		}
	}
	return nil
}
