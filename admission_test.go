package armada

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"armada/internal/kautz"
	"armada/internal/naming"
)

// admissionCase is one published object the admission tests filter by hand.
type admissionCase struct {
	name string
	vals []float64 // nil: published value-less, by PublishExact
	id   string
}

// bruteRange is the oracle: every published object of the network's arity
// whose values lie in [lo, hi] attribute by attribute, in a range result's
// (ObjectID, Name) order.
func bruteRange(all []admissionCase, lo, hi []float64) []admissionCase {
	var out []admissionCase
	for _, c := range all {
		in := len(c.vals) == len(lo)
		for a := 0; in && a < len(lo); a++ {
			in = lo[a] <= c.vals[a] && c.vals[a] <= hi[a]
		}
		if in {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b admissionCase) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.name, b.name)) })
	return out
}

// sameObjects fails unless got holds exactly want, in want's order.
func sameObjects(t *testing.T, what string, got []Object, want []admissionCase) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d objects, the oracle %d", what, len(got), len(want))
	}
	for i, o := range got {
		if w := want[i]; o.Name != w.name || o.ID != w.id || !slices.Equal(o.Values, w.vals) {
			t.Fatalf("%s: object %d is %s@%s %v, the oracle's %s@%s %v", what, i, o.Name, o.ID, o.Values, w.name, w.id, w.vals)
		}
	}
}

// valuesHashedInto returns the least and the greatest value of the space
// [low, high], low ≥ 0, whose single-attribute hash ranks within [lo, hi]:
// a bisection of HashRank, which is monotone, over the bits of the floats,
// which order non-negative floats as their values do.
func valuesHashedInto(t testing.TB, tree *naming.Tree, low, high float64, lo, hi uint64) (float64, float64) {
	t.Helper()
	// least is the least bits in [a, b) at which past holds, else b.
	least := func(a, b uint64, past func(uint64) bool) uint64 {
		for a < b {
			mid := a + (b-a)/2
			r, err := tree.HashRank(math.Float64frombits(mid))
			if err != nil {
				t.Fatal(err)
			}
			if past(r) {
				b = mid
			} else {
				a = mid + 1
			}
		}
		return a
	}
	from, to := math.Float64bits(low), math.Float64bits(high)+1
	first := least(from, to, func(r uint64) bool { return r >= lo })
	last := least(from, to, func(r uint64) bool { return r > hi }) - 1
	return math.Float64frombits(first), math.Float64frombits(last)
}

// TestRankAdmissionEdges pins PIRA's rank admission — an object whose ObjectID
// lies strictly between the query's corner ObjectIDs is admitted without the
// float test — where it can go wrong. Each corner leaf holds objects on both
// sides of the box's bound under the corner's own ObjectID; value-less
// exact-match objects hash into the region; values outside the attribute
// space clamp into the end leaves. A range, a paged walk whose cursors step
// through the corner leaves, a flood and a top-k must each equal a brute-force
// filter over everything published — so admitting a corner leaf, or a row of
// the wrong arity, without the float test fails here.
func TestRankAdmissionEdges(t *testing.T) {
	ctx := context.Background()
	net := newNetworkK(t, 150, 12, WithSeed(26))
	tree, k := net.tree, net.net.K()
	var all []admissionCase
	publish := func(v float64) {
		name := fmt.Sprintf("v%03d", len(all))
		if err := net.Publish(name, v); err != nil {
			t.Fatal(err)
		}
		id, _ := tree.Hash(v)
		all = append(all, admissionCase{name: name, vals: []float64{v}, id: string(id)})
	}
	for i := 0; i < 500; i++ {
		publish(float64(i)*2 + 0.37)
	}
	// Outside the attribute space: clamped into the end leaves by naming,
	// refused by every box, whose bounds clamp to the space.
	publish(-5)
	publish(1005)

	boxes := [][2]float64{{301.7, 352.9}, {0, 40.2}, {960.4, 1000}, {517.31, 517.33}}
	for _, box := range boxes {
		// Each corner leaf: objects under the corner's own ObjectID on both sides
		// of the bound, and on it.
		for _, c := range box {
			leaf, _ := tree.Hash(c)
			low, high := valuesHashedInto(t, tree, 0, 1000, kautz.Rank(leaf), kautz.Rank(leaf))
			for _, v := range []float64{(low + c) / 2, math.Nextafter(c, math.Inf(-1)), c, math.Nextafter(c, math.Inf(1)), (c + high) / 2} {
				if id, _ := tree.Hash(v); id == leaf && v >= 0 && v <= 1000 {
					publish(v)
				}
			}
		}
	}
	// Value-less objects whose Kautz_hash lands inside each wide box's region.
	for b, box := range boxes[:3] {
		lo, _ := tree.HashRank(box[0])
		hi, _ := tree.HashRank(box[1])
		for i, found := 0, 0; found < 3; i++ {
			name := fmt.Sprintf("exact-%d-%d", b, i)
			if id := kautz.Hash(name, k); lo <= kautz.Rank(id) && kautz.Rank(id) <= hi {
				if err := net.PublishExact(name); err != nil {
					t.Fatal(err)
				}
				all = append(all, admissionCase{name: name, id: string(id)})
				found++
			}
		}
	}

	for _, box := range boxes {
		lo, hi := []float64{box[0]}, []float64{box[1]}
		rng := []Range{{Low: box[0], High: box[1]}}
		want := bruteRange(all, lo, hi)
		if len(want) < 2 {
			t.Fatalf("box %v: the oracle holds %d objects; the case tests nothing", box, len(want))
		}
		what := func(kind string) string { return fmt.Sprintf("box %v: %s", box, kind) }

		res, err := net.Do(ctx, NewRange(rng))
		if err != nil {
			t.Fatal(err)
		}
		sameObjects(t, what("range"), res.Objects, want)

		res, err = net.Do(ctx, NewRange(rng, WithFlood()))
		if err != nil {
			t.Fatal(err)
		}
		sameObjects(t, what("flood"), res.Objects, want)

		// A page per ObjectID: every cursor, the corner leaves' included.
		sess, err := net.OpenSession(NewRange(rng, WithLimit(1)))
		if err != nil {
			t.Fatal(err)
		}
		var walked []Object
		for sess.More() {
			page, err := sess.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			walked = append(walked, page.Objects...)
		}
		sameObjects(t, what("paged walk"), walked, want)

		// Resumed from the low corner's ObjectID: the cursor clips the corner leaf away.
		res, err = net.Do(ctx, NewRange(rng, WithOffsetID(want[0].id)))
		if err != nil {
			t.Fatal(err)
		}
		rest := slices.DeleteFunc(slices.Clone(want), func(c admissionCase) bool { return c.id <= want[0].id })
		sameObjects(t, what("after the low corner"), res.Objects, rest)

		res, err = net.Do(ctx, NewRange(rng, WithTopK(4)))
		if err != nil {
			t.Fatal(err)
		}
		top := slices.Clone(want)
		slices.SortStableFunc(top, func(a, b admissionCase) int {
			return cmp.Or(cmp.Compare(b.vals[0], a.vals[0]), cmp.Compare(a.name, b.name), cmp.Compare(a.id, b.id))
		})
		sameObjects(t, what("top-k"), res.Objects, top[:min(4, len(top))])
	}
}

// TestRankAdmissionMIRA: a multi-attribute region over-covers its box, so an
// object whose ObjectID lies strictly between the corners may still lie
// outside the box; MIRA must float-test every object.
func TestRankAdmissionMIRA(t *testing.T) {
	ctx := context.Background()
	net := newNetworkK(t, 150, 16, WithSeed(27), WithAttributes(AttributeSpace{0, 1000}, AttributeSpace{0, 100}))
	lo, hi := []float64{200, 20}, []float64{600, 60}
	box, _ := net.tree.NewBox(lo, hi)
	cLo, _ := net.tree.HashRank(lo...)
	cHi, _ := net.tree.HashRank(hi...)
	rng := rand.New(rand.NewSource(27))
	var all []admissionCase
	outside := 0
	for len(all) < 600 {
		v := []float64{rng.Float64() * 1000, rng.Float64() * 100}
		id, _ := net.tree.Hash(v...)
		if r := kautz.Rank(id); r <= cLo || r >= cHi {
			continue
		}
		if !box.Contains(v) {
			outside++
		}
		name := fmt.Sprintf("m%03d", len(all))
		if err := net.Publish(name, v...); err != nil {
			t.Fatal(err)
		}
		all = append(all, admissionCase{name: name, vals: v, id: string(id)})
	}
	want := bruteRange(all, lo, hi)
	if outside < 100 || len(want) < 50 {
		t.Fatalf("%d of the region's objects lie outside the box, %d inside: the case tests nothing", outside, len(want))
	}
	for _, opts := range [][]QueryOption{nil, {WithFlood()}} {
		res, err := net.Do(ctx, NewRange([]Range{{lo[0], hi[0]}, {lo[1], hi[1]}}, opts...))
		if err != nil {
			t.Fatal(err)
		}
		sameObjects(t, "MIRA range", res.Objects, want)
	}
}

// TestTopKStopsAtTheBar pins single-attribute top-k's early stop: each run is
// read from its high end, and the scan stops at the first slot below a full
// selection's bar once it has finished that slot's ObjectID. At ObjectID
// length 12 a leaf spans ~0.16 of the space; values published in clusters of
// that width put several distinct values under one ObjectID, whose slots,
// ordered by name, hold them in no order. Exact ties put objects that beat
// the bar on name alone in the bar's own leaf, and value-less objects hash
// among them. With one and three replicas, at k from
// 1 to 50, WithTopK must equal the sorted full-range oracle over boxes of
// every width — so stopping inside a leaf, or at a slot that ties the bar,
// fails here.
func TestTopKStopsAtTheBar(t *testing.T) {
	ctx := context.Background()
	for _, replicas := range []int{1, 3} {
		net := newNetworkK(t, 120, 12, WithSeed(27), WithReplication(replicas))
		tree, k := net.tree, net.net.K()
		rng := rand.New(rand.NewSource(28))
		var all []admissionCase
		publish := func(v float64) {
			name := fmt.Sprintf("%c%05d", 'a'+rng.Intn(26), len(all)) // name order apart from value order
			if err := net.Publish(name, v); err != nil {
				t.Fatal(err)
			}
			id, _ := tree.Hash(v)
			all = append(all, admissionCase{name: name, vals: []float64{v}, id: string(id)})
		}
		for i := 0; i < 400; i++ {
			c := math.Round(rng.Float64()*64000) / 64
			for j := 0; j < 6; j++ {
				v := min(c+float64(rng.Intn(12))/64, 1000)
				for ties := rng.Intn(3); ties >= 0; ties-- {
					publish(v)
				}
			}
			if i%4 == 0 {
				name := fmt.Sprintf("exact-%04d", i)
				if err := net.PublishExact(name); err != nil {
					t.Fatal(err)
				}
				all = append(all, admissionCase{name: name, id: string(kautz.Hash(name, k))})
			}
		}
		boxes := [][2]float64{{0, 1000}}
		for len(boxes) < 32 {
			lo := rng.Float64() * 1000
			boxes = append(boxes, [2]float64{lo, min(lo+math.Pow(10, rng.Float64()*3-1), 1000)}) // 0.1 to 100 wide
		}
		for _, box := range boxes {
			want := bruteRange(all, []float64{box[0]}, []float64{box[1]})
			slices.SortFunc(want, func(a, b admissionCase) int {
				return cmp.Or(cmp.Compare(b.vals[0], a.vals[0]), cmp.Compare(a.name, b.name), cmp.Compare(a.id, b.id))
			})
			for _, n := range []int{1, 3, 10, 50} {
				res, err := net.Do(ctx, NewRange([]Range{{Low: box[0], High: box[1]}}, WithTopK(n)))
				if err != nil {
					t.Fatal(err)
				}
				sameObjects(t, fmt.Sprintf("replicas %d, box %v, top-%d", replicas, box, n), res.Objects, want[:min(n, len(want))])
			}
		}
		net.Close()
	}
}
