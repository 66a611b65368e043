package fissione

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"armada/internal/kautz"
)

// refStore is the naive reference model of a peer store: a flat slice of
// objects kept in the canonical order by sorting it whole after every change
// and queried by filtering it. The slot-and-column store must agree with it
// byte for byte on every operation.
type refStore []StoredObject

func refCompare(a, b StoredObject) int {
	return cmp.Or(cmp.Compare(a.ObjectID, b.ObjectID), cmp.Compare(a.Object.Name, b.Object.Name),
		slices.Compare(a.Object.Values, b.Object.Values))
}

func (ref *refStore) add(id kautz.Str, obj Object) {
	*ref = append(*ref, StoredObject{ObjectID: id, Object: obj})
	slices.SortStableFunc(*ref, refCompare)
}

func (ref *refStore) remove(id kautz.Str, obj Object) bool {
	i := slices.IndexFunc(*ref, func(so StoredObject) bool {
		return refCompare(so, StoredObject{ObjectID: id, Object: obj}) == 0
	})
	if i >= 0 {
		*ref = slices.Delete(*ref, i, i+1)
	}
	return i >= 0
}

func (ref refStore) count() int { return len(ref) }

// where is the O(store) filter every reference read is: nil when nothing
// passes, as the store's reads are.
func (ref refStore) where(keep func(id kautz.Str) bool) (out []StoredObject) {
	for _, so := range ref {
		if keep(so.ObjectID) {
			out = append(out, so)
		}
	}
	return out
}

func (ref refStore) inRegion(r kautz.Region) []StoredObject { return ref.where(r.Contains) }

func (ref refStore) all() []StoredObject { return ref.where(func(kautz.Str) bool { return true }) }

// takePrefix removes and returns the objects whose ObjectID starts with prefix.
func (ref *refStore) takePrefix(prefix kautz.Str) refStore {
	taken := refStore(ref.where(func(id kautz.Str) bool { return id.HasPrefix(prefix) }))
	*ref = ref.where(func(id kautz.Str) bool { return !id.HasPrefix(prefix) })
	return taken
}

// times counts the copies of so the reference holds.
func (ref refStore) times(so StoredObject) (n int) {
	for _, o := range ref {
		if refCompare(o, so) == 0 {
			n++
		}
	}
	return n
}

// merged is the reference of the two store merges: the sum of two stores or,
// with union, their multiset maximum — b's n-th copy of an object joins a's
// only if a holds fewer than n.
func merged(a, b refStore, union bool) refStore {
	out := slices.Clone(a)
	for i, so := range b {
		if !union || a.times(so) <= b[:i].times(so) {
			out = append(out, so)
		}
	}
	slices.SortStableFunc(out, refCompare)
	return out
}

// refObject derives an object from a small name space: four arities — none,
// as PublishExact stores, and one to three values — so that one store mixes
// them and widens as the wider ones arrive, and two value variants a name, so
// that (ObjectID, Name) ties are ordered by their values.
func refObject(rng *rand.Rand) Object {
	n := rng.Intn(40)
	vals := []float64{float64(n), float64(n % 7), float64(rng.Intn(2))}
	obj := Object{Name: fmt.Sprintf("n%02d", n)}
	if arity := n % 4; arity > 0 {
		obj.Values = vals[3-arity:]
	}
	return obj
}

// checkStore verifies what every store operation must leave behind: slots in
// the canonical order, each keyed by its ObjectID's rank, a column of exactly
// one stride-wide row a slot whose padding is zero, and a column with room
// for a row for every slot the store has room for, so that the column never
// grows on its own.
func checkStore(t testing.TB, p *Peer) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	all, w := p.run(0, len(p.store)), p.stride()
	if len(p.vals) != len(p.store)*w {
		t.Fatalf("column holds %d values for %d slots", len(p.vals), len(p.store))
	}
	if cap(p.vals) < cap(p.store)*w {
		t.Fatalf("column has room for %d values, the store for %d slots at stride %d", cap(p.vals), cap(p.store), w)
	}
	for i := range p.store {
		s := &p.store[i]
		if id := kautz.Str(s.Rec()[:s.ILen]); !kautz.Valid(id) || kautz.Rank(id) != s.Key || int(s.N) > w {
			t.Fatalf("slot %d: key %d, %d values at stride %d for record %q", i, s.Key, s.N, w, s.Rec())
		}
		if i > 0 && compareAt(all, i-1, all, i) > 0 {
			t.Fatalf("slots %d and %d are out of canonical order", i-1, i)
		}
		for _, pad := range p.vals[i*w+int(s.N) : (i+1)*w] {
			if pad != 0 {
				t.Fatalf("slot %d: padding holds %v", i, pad)
			}
		}
	}
}

// TestOrderedIndexMatchesReference drives a random publish / unpublish /
// region-query / scan / count sequence against both the ordered index and
// the naive reference, requiring identical results throughout.
func TestOrderedIndexMatchesReference(t *testing.T) {
	const k = 12
	rng := rand.New(rand.NewSource(4242))
	p := newPeer("0")
	var ref refStore
	var pool []kautz.Str // previously used ObjectIDs, for duplicates and removals

	randomID := func() kautz.Str {
		if len(pool) > 0 && rng.Intn(3) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		id := kautz.Random(rng, k)
		pool = append(pool, id)
		return id
	}
	randomRegion := func() kautz.Region {
		a, b := kautz.Random(rng, k), kautz.Random(rng, k)
		if a > b {
			a, b = b, a
		}
		if rng.Intn(4) == 0 { // sometimes a whole-prefix region
			pre := a[:1+rng.Intn(3)]
			return kautz.Region{Low: kautz.MinExtend(pre, k), High: kautz.MaxExtend(pre, k)}
		}
		return kautz.Region{Low: a, High: b}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // publish
			id, obj := randomID(), refObject(rng)
			put(p, id, obj)
			ref.add(id, obj)
		case op < 6: // unpublish, often of something absent
			id, obj := randomID(), refObject(rng)
			if got, want := take(p, id, obj), ref.remove(id, obj); got != want {
				t.Fatalf("step %d: removeObject(%s, %v) = %v, reference %v", step, id, obj, got, want)
			}
		case op < 8: // region query
			r := randomRegion()
			got, want := viewOf(p, "", r, ""), ref.inRegion(r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: View(%v) diverged:\n got %v\nwant %v", step, r, got, want)
			}
			// The prefix-bounded scan equals the scan of the region clipped
			// to the prefix's own region, which it never builds.
			own := kautz.Random(rng, k)[:1+rng.Intn(4)]
			want = nil
			if clip, ok := r.Intersect(kautz.Region{Low: kautz.MinExtend(own, k), High: kautz.MaxExtend(own, k)}); ok {
				want = ref.inRegion(clip)
			}
			if owned := viewOf(p, own, r, ""); !reflect.DeepEqual(owned, want) {
				t.Fatalf("step %d: View(%s, %v) diverged:\n got %v\nwant %v", step, own, r, owned, want)
			}
		case op < 9: // paged scan: pages concatenate to the full region scan
			r := randomRegion()
			want := ref.inRegion(r)
			var own kautz.Str
			if rng.Intn(2) == 0 { // a replica's walk, bounded by its owner's prefix
				own, want = kautz.Random(rng, k)[:1+rng.Intn(3)], nil
				if clip, ok := r.Intersect(kautz.Region{Low: kautz.MinExtend(own, k), High: kautz.MaxExtend(own, k)}); ok {
					want = ref.inRegion(clip)
				}
			}
			limit := 1 + rng.Intn(5)
			var (
				got   []StoredObject
				after kautz.Str
			)
			for pages := 0; ; pages++ {
				if pages > len(want)+2 {
					t.Fatalf("step %d: paged scan of %v does not terminate", step, r)
				}
				var page []StoredObject
				for _, so := range viewOf(p, own, r, after) {
					if len(page) >= limit && so.ObjectID != page[len(page)-1].ObjectID {
						break
					}
					page = append(page, so)
				}
				if len(page) == 0 {
					break
				}
				got = append(got, page...)
				after = page[len(page)-1].ObjectID
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: paged scan of %v diverged:\n got %v\nwant %v", step, r, got, want)
			}
		default: // full-store invariants
			checkStore(t, p)
			if got, want := p.ObjectCount(), ref.count(); got != want {
				t.Fatalf("step %d: ObjectCount = %d, want %d", step, got, want)
			}
			if got, want := p.AllObjects(), ref.all(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: AllObjects diverged:\n got %v\nwant %v", step, got, want)
			}
		}
	}
}

// put and take are addObject and removeObject for a test that holds an
// ObjectID and an Object apart, as PublishAt and UnpublishAt do.
func put(p *Peer, id kautz.Str, obj Object) {
	p.addObject(newSlot(kautz.Rank(id), string(id)+obj.Name, len(id), len(obj.Values)), obj.Values)
}

func take(p *Peer, id kautz.Str, obj Object) bool {
	return p.removeObject(kautz.Rank(id), obj.Name, obj.Values)
}

// viewOf copies out what one View hands its callback (nil when the run is
// empty), failing the property tests' shared expectation — exactly one call
// — by panicking.
func viewOf(p *Peer, own kautz.Str, r kautz.Region, after kautz.Str) (out []StoredObject) {
	calls := 0
	p.View(own, r, after, func(run Run) {
		calls++
		run.each(func(so StoredObject) bool {
			out = append(out, so)
			return true
		})
	})
	if calls != 1 {
		panic(fmt.Sprintf("View called its function %d times", calls))
	}
	return out
}

// TestViewMatchesScanRegion pins the one store read to the scan it replaced:
// for random prefix bounds, regions and cursors — over an empty store, a
// sparse one and a dense one with duplicate ObjectIDs — the view is exactly
// the objects ScanRegion visits over the region clipped to the prefix, in
// order, and nothing when the two do not meet.
func TestViewMatchesScanRegion(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(1919))
	for _, size := range []int{0, 7, 600} {
		p := newPeer("0")
		ids := make([]kautz.Str, 0, size)
		for i := 0; i < size; i++ {
			id := kautz.Random(rng, k)
			if i%5 == 4 {
				id = ids[rng.Intn(len(ids))] // several objects under one ObjectID
			}
			ids = append(ids, id)
			put(p, id, refObject(rng))
		}
		for trial := 0; trial < 2000; trial++ {
			a, b := kautz.Random(rng, k), kautz.Random(rng, k)
			if a > b {
				a, b = b, a
			}
			r := kautz.Region{Low: a, High: b}
			var own, after kautz.Str
			if rng.Intn(2) == 0 {
				own = kautz.Random(rng, k)[:1+rng.Intn(4)]
			}
			switch rng.Intn(4) {
			case 0:
				after = kautz.Random(rng, k)
			case 1:
				if size > 0 {
					after = ids[rng.Intn(size)] // a cursor on a stored ObjectID
				}
			}
			var want []StoredObject
			clip, ok := r, true
			if own != "" {
				clip, ok = r.Intersect(kautz.Region{Low: kautz.MinExtend(own, k), High: kautz.MaxExtend(own, k)})
			}
			if ok {
				p.ScanRegion(clip, after, func(so StoredObject) bool {
					want = append(want, so)
					return true
				})
			}
			if got := viewOf(p, own, r, after); !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d: View(%q, %v, after %q) diverged:\n got %v\nwant %v", size, own, r, after, got, want)
			}
		}
	}
}

// TestReplicatedStoreMatchesReference extends the index-vs-naive property
// test to replicated stores: every publish/unpublish fans out to a replica
// group, yet the network as a whole must answer region queries, paged
// scans and counts exactly like the naive single-copy reference — and
// every group member's copy must stay byte-identical to the owner's run.
func TestReplicatedStoreMatchesReference(t *testing.T) {
	const k = 12
	for _, replicas := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(5000 + replicas)))
			n, err := BuildRandom(k, 24, int64(6000+replicas))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.SetReplicas(replicas); err != nil {
				t.Fatal(err)
			}
			var ref refStore
			var pool []kautz.Str

			randomID := func() kautz.Str {
				if len(pool) > 0 && rng.Intn(3) == 0 {
					return pool[rng.Intn(len(pool))]
				}
				id := kautz.Random(rng, k)
				pool = append(pool, id)
				return id
			}
			// netInRegion answers a region query the way the engine does:
			// each owner contributes only its own region's slice, so
			// replica copies never double-count.
			netInRegion := func(r kautz.Region) []StoredObject {
				var out []StoredObject
				for _, id := range n.PeerIDs() {
					own := kautz.Region{Low: kautz.MinExtend(id, k), High: kautz.MaxExtend(id, k)}
					clipped, ok := r.Intersect(own)
					if !ok {
						continue
					}
					p, _ := n.Peer(id)
					out = append(out, viewOf(p, "", clipped, "")...)
				}
				return out
			}
			wholeSpace := kautz.Region{Low: kautz.MinExtend("", k), High: kautz.MaxExtend("", k)}

			for step := 0; step < 1500; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // publish
					id, obj := randomID(), refObject(rng)
					if _, err := n.PublishAt(id, obj); err != nil {
						t.Fatalf("step %d: publish: %v", step, err)
					}
					ref.add(id, obj)
				case op < 6: // unpublish, often of something absent
					id, obj := randomID(), refObject(rng)
					_, err := n.UnpublishAt(id, obj)
					if want := ref.remove(id, obj); (err == nil) != want {
						t.Fatalf("step %d: UnpublishAt(%s, %v) err=%v, reference removed=%v", step, id, obj, err, want)
					}
				case op < 8: // region query
					a, b := kautz.Random(rng, k), kautz.Random(rng, k)
					if a > b {
						a, b = b, a
					}
					r := kautz.Region{Low: a, High: b}
					got, want := netInRegion(r), ref.inRegion(r)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: region %v diverged:\n got %v\nwant %v", step, r, got, want)
					}
				default: // full-space + replica-set invariants
					got, want := netInRegion(wholeSpace), ref.all()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: whole space diverged: %d objects, want %d", step, len(got), len(want))
					}
					if err := n.CheckReplicas(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		})
	}
}

// TestOrderedIndexMoves exercises the contiguous-cut move paths (splits,
// merges, crashes) against the reference model.
func TestOrderedIndexMoves(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		src, dst := newPeer("0"), newPeer("1")
		var refSrc, refDst refStore
		for i := 0; i < 120; i++ {
			id, obj := kautz.Random(rng, k), refObject(rng)
			put(src, id, obj)
			refSrc.add(id, obj)
			if rng.Intn(3) == 0 { // dst starts non-empty to exercise merging
				id2, obj2 := kautz.Random(rng, k), refObject(rng)
				put(dst, id2, obj2)
				refDst.add(id2, obj2)
			}
		}
		prefix := kautz.Random(rng, k)[:1+rng.Intn(3)]
		src.moveObjectsWithPrefix(prefix, dst)
		refDst = merged(refDst, refSrc.takePrefix(prefix), false)
		if got, want := src.AllObjects(), refSrc.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: source after move of %q diverged:\n got %v\nwant %v", trial, prefix, got, want)
		}
		if got, want := dst.AllObjects(), refDst.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: destination after move of %q diverged:\n got %v\nwant %v", trial, prefix, got, want)
		}

		src.moveAllObjects(dst, false)
		refDst, refSrc = merged(refDst, refSrc, false), nil
		if src.ObjectCount() != 0 {
			t.Fatalf("trial %d: source not empty after moveAllObjects", trial)
		}
		if got, want := dst.AllObjects(), refDst.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: destination after moveAllObjects diverged", trial)
		}
		checkStore(t, src)
		checkStore(t, dst)

		if lost := dst.clearStore(); lost != refDst.count() {
			t.Fatalf("trial %d: clearStore dropped %d, want %d", trial, lost, refDst.count())
		}
		if dst.ObjectCount() != 0 || len(dst.AllObjects()) != 0 {
			t.Fatalf("trial %d: store not empty after clearStore", trial)
		}
	}
}

// TestSlotLayout pins what the collector walks: a slot is 24 bytes and holds
// exactly one pointer-bearing field, its record. A second pointer — a values
// slice, a name apart from the ObjectID — would bring back one more heap
// object to mark for every stored object.
func TestSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(Slot{}); size != 24 {
		t.Errorf("Slot is %d bytes, want 24", size)
	}
	var pointers []string
	for i, typ := 0, reflect.TypeOf(Slot{}); i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float64:
		default:
			pointers = append(pointers, f.Name)
		}
	}
	if !slices.Equal(pointers, []string{"rec"}) {
		t.Errorf("Slot's pointer-bearing fields are %v, want only rec", pointers)
	}
}

// TestStoreGrowsByHalf fills one empty peer with 1,000 objects and requires
// every reallocation of its store to land both arrays at exactly n + n/2 + 1
// rows, n the rows it had: the slots at that capacity, the column at that
// many rows of its stride. Midway a wider row re-lays the column at the
// store's rows, and the growth goes on at the new stride.
func TestStoreGrowsByHalf(t *testing.T) {
	const k, n, widen = 12, 1000, 400
	rng := rand.New(rand.NewSource(33))
	p := newPeer("0")
	rows, grown := 0, 0
	for i := range n {
		obj := Object{Name: fmt.Sprintf("g%04d", i), Values: []float64{float64(i)}}
		if i >= widen {
			obj.Values = append(obj.Values, 1)
		}
		put(p, kautz.Random(rng, k), obj)
		checkStore(t, p)
		p.mu.RLock()
		got, w, vals := cap(p.store), p.stride(), cap(p.vals)
		p.mu.RUnlock()
		if got != rows {
			if want := i + i/2 + 1; i != rows || got != want {
				t.Fatalf("object %d: the store went from %d to %d rows, want %d → %d", i, rows, got, i, want)
			}
			rows, grown = got, grown+1
		}
		if vals != rows*w {
			t.Fatalf("object %d: the column has room for %d values, want %d rows of %d", i, vals, rows, w)
		}
	}
	if grown < 10 {
		t.Fatalf("the store grew %d times over %d objects", grown, n)
	}
}

// TestStoreWidensMidRun mixes arities on one peer in the order that re-lays
// the column twice: value-less objects first (no column at all), then
// one-value objects among them, then three-value ones — with duplicate
// publications at every width — and narrows nothing when the wide ones go.
// After every step the store equals the reference and is aligned.
func TestStoreWidensMidRun(t *testing.T) {
	const k = 8
	rng := rand.New(rand.NewSource(88))
	p := newPeer("0")
	var ref refStore
	check := func(when string) {
		t.Helper()
		checkStore(t, p)
		if got, want := p.AllObjects(), ref.all(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store diverged:\n got %v\nwant %v", when, got, want)
		}
	}
	var wide []StoredObject
	for phase, arity := range []int{0, 1, 3, 2} {
		for i := 0; i < 30; i++ {
			id := kautz.Random(rng, k)
			obj := Object{Name: fmt.Sprintf("a%d-%02d", arity, i%20)} // i ≥ 20 repeat a name
			for v := 0; v < arity; v++ {
				obj.Values = append(obj.Values, float64(i%20*10+v))
			}
			for copies := 1 + i%2; copies > 0; copies-- { // every other object is published twice
				put(p, id, obj)
				ref.add(id, obj)
				check(fmt.Sprintf("arity %d, object %d", arity, i))
			}
			if arity == 3 {
				wide = append(wide, StoredObject{ObjectID: id, Object: obj})
			}
		}
		// Two values after three widen nothing.
		if got, want := p.stride(), []int{0, 1, 3, 3}[phase]; got != want {
			t.Fatalf("after the %d-value objects the column's stride is %d, want %d", arity, got, want)
		}
	}
	for _, so := range wide {
		for ref.remove(so.ObjectID, so.Object) {
			if !take(p, so.ObjectID, so.Object) {
				t.Fatalf("%v: the reference holds a copy the store does not", so)
			}
			check(fmt.Sprintf("removing %v", so))
		}
	}
	if got := p.stride(); got != 3 {
		t.Fatalf("the stride narrowed to %d with objects still stored", got)
	}
	if p.clearStore(); p.stride() != 0 {
		t.Fatal("an emptied store keeps a stride")
	}
}

// TestViewBoundaries reads a store that holds an object at every rank that
// bounds something — the space's first and last ObjectID, both sides of each
// first-symbol boundary, both ends of a short owner prefix — through every
// combination of region, owner prefix and cursor drawn from those same
// ObjectIDs: point regions, regions that end where the prefix begins, a
// prefix outside the region, a cursor at or past the region's High. View and
// ViewSpan return what filtering by string comparison returns, at the
// shortest ObjectIDs a network can have and at the longest, whose ranks use
// the top bit but one.
func TestViewBoundaries(t *testing.T) {
	for _, k := range []int{2, 13, kautz.MaxRankLen} {
		var ids []kautz.Str
		for _, pre := range []kautz.Str{"", "0", "1", "2", "10", "12"} {
			ids = append(ids, kautz.MinExtend(pre, k), kautz.MaxExtend(pre, k))
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		p := newPeer("0")
		var ref refStore
		for i, id := range ids {
			obj := Object{Name: fmt.Sprintf("b%02d", i), Values: []float64{float64(i)}}
			put(p, id, obj)
			ref.add(id, obj)
		}
		checkStore(t, p)
		for _, low := range ids {
			for _, high := range ids {
				if low > high {
					continue
				}
				r := kautz.Region{Low: low, High: high}
				for _, own := range []kautz.Str{"", "0", "1", "2", "10", "12"} {
					for _, after := range append([]kautz.Str{""}, ids...) {
						want := ref.where(func(id kautz.Str) bool { return r.Contains(id) && id.HasPrefix(own) && id > after })
						if got := viewOf(p, own, r, after); !reflect.DeepEqual(got, want) {
							t.Fatalf("k=%d: View(%q, %v, after %q):\n got %v\nwant %v", k, own, r, after, got, want)
						}
						span := SpanOf(r, after).Clip(kautz.PrefixRanks(own, k))
						n := 0
						p.ViewSpan(span, func(run Run) { n = len(run.Idx) })
						if n != len(want) {
							t.Fatalf("k=%d: ViewSpan(%v) holds %d objects, the filter %d", k, span, n, len(want))
						}
					}
				}
			}
		}
	}
}

// storeFuzzK is the ObjectID length FuzzStoreMatchesReference runs at: 48
// ObjectIDs, few enough that a byte reaches each and programs revisit them.
const storeFuzzK = 5

// FuzzStoreMatchesReference decodes its input into a sequence of store
// operations on two peers — publishes and unpublishes of objects of four
// arities from a small pool, so that ObjectIDs, names and whole objects
// repeat; prefix moves, whole-store moves by sum and by multiset maximum;
// a replica repair's set and drop of a prefix run; span reads — and applies
// each to the slot-and-column stores and to sorted-slice references. After
// every step both stores equal their references and are aligned (checkStore).
func FuzzStoreMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x05\x01\x00\x05\x01\x00\x06\x03\x10\x05\x02\x02\x01\x00\x03\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		peers := [2]*Peer{newPeer("0"), newPeer("1")}
		var refs [2]refStore
		space := kautz.SpaceSize(storeFuzzK)
		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			op, at := data[0]&7, int(data[0]>>4)&1
			p, ref, q, qref := peers[at], &refs[at], peers[1-at], &refs[1-at]
			id, _ := kautz.FromRank(uint64(data[1])%space, storeFuzzK)
			prefix := id[:1+int(data[2]>>6)]
			obj := Object{Name: fmt.Sprintf("n%d", data[2]&3)}
			if arity := int(data[2] >> 2 & 3); arity > 0 {
				obj.Values = []float64{float64(data[2] >> 4 & 1), 2, 3}[:arity]
			}
			switch op {
			case 0, 1:
				put(p, id, obj)
				ref.add(id, obj)
			case 2:
				if got, want := take(p, id, obj), ref.remove(id, obj); got != want {
					t.Fatalf("step %d: removeObject(%s, %v) = %t, reference %t", step, id, obj, got, want)
				}
			case 3:
				p.moveObjectsWithPrefix(prefix, q)
				*qref = merged(*qref, ref.takePrefix(prefix), false)
			case 4:
				p.moveAllObjects(q, data[2]&1 == 1)
				*qref, *ref = merged(*qref, *ref, data[2]&1 == 1), nil
			case 5: // a repair: p's run for the prefix becomes q's
				run := q.copyPrefixRun(prefix)
				before := ref.takePrefix(prefix)
				install := refStore(qref.where(func(id kautz.Str) bool { return id.HasPrefix(prefix) }))
				added := 0
				for i, so := range install {
					if before.times(so) <= install[:i].times(so) {
						added++
					}
				}
				if got := p.setPrefixRun(prefix, run); got != added {
					t.Fatalf("step %d: setPrefixRun(%q) copied %d objects, want %d", step, prefix, got, added)
				}
				*ref = merged(*ref, install, false)
			case 6:
				if got, want := p.dropPrefixRun(prefix), len(ref.takePrefix(prefix)); got != want {
					t.Fatalf("step %d: dropPrefixRun(%q) = %d, want %d", step, prefix, got, want)
				}
			case 7:
				span := kautz.Span{Lo: uint64(data[1]) % space, Hi: uint64(data[2]) % space}
				want := ref.where(func(id kautz.Str) bool { return span.Lo <= kautz.Rank(id) && kautz.Rank(id) <= span.Hi })
				var got []StoredObject
				p.ViewSpan(span, func(run Run) {
					run.each(func(so StoredObject) bool {
						got = append(got, so)
						return true
					})
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: ViewSpan(%v):\n got %v\nwant %v", step, span, got, want)
				}
			}
			for i, p := range peers {
				checkStore(t, p)
				if got, want := p.AllObjects(), refs[i].all(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (op %d): peer %d diverged:\n got %v\nwant %v", step, op, i, got, want)
				}
			}
		}
	})
}

// benchStore is the store BenchmarkScanRegion and BenchmarkView read: a peer
// holding 200 objects (scan-wide's 100k objects on 500 peers) and the region
// over the middle half of them.
func benchStore() (*Peer, kautz.Region) {
	const k = 32
	rng := rand.New(rand.NewSource(7))
	p := newPeer("0")
	ids := make([]kautz.Str, 200)
	for i := range ids {
		for ids[i] = kautz.Random(rng, k); ids[i][0] != '0'; {
			ids[i] = kautz.Random(rng, k)
		}
		put(p, ids[i], Object{Name: fmt.Sprintf("o%03d", i), Values: []float64{float64(i)}})
	}
	slices.Sort(ids)
	return p, kautz.Region{Low: ids[50], High: ids[149]}
}

// BenchmarkScanRegion measures the per-object callback form of the store
// read, which the frozen bench twin still calls: one region scan visiting
// 100 objects. ns/object is the figure to read; the scan itself allocates
// nothing.
func BenchmarkScanRegion(b *testing.B) {
	p, r := benchStore()
	visited, sum := 0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScanRegion(r, "", func(so StoredObject) bool {
			visited++
			sum += so.Object.Values[0]
			return true
		})
	}
	if visited != 100*b.N || sum == 0 {
		b.Fatalf("visited %d objects in %d scans, want 100 each", visited, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/object")
}

// BenchmarkView is the same read the way every query now makes it: one
// lock, one positioning, a plain loop over the run.
func BenchmarkView(b *testing.B) {
	p, r := benchStore()
	visited, sum := 0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.View("", r, "", func(run Run) {
			for j := range run.Idx {
				visited++
				sum += run.Vals[j*run.Stride]
			}
		})
	}
	if visited != 100*b.N || sum == 0 {
		b.Fatalf("visited %d objects in %d views, want 100 each", visited, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/object")
}

// BenchmarkViewSpan is BenchmarkView the way a query makes the read: the
// region ranked once, outside the loop, and every read positioned by integer.
func BenchmarkViewSpan(b *testing.B) {
	p, r := benchStore()
	span := SpanOf(r, "")
	visited, sum := 0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ViewSpan(span, func(run Run) {
			for j := range run.Idx {
				visited++
				sum += run.Vals[j*run.Stride]
			}
		})
	}
	if visited != 100*b.N || sum == 0 {
		b.Fatalf("visited %d objects in %d views, want 100 each", visited, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/object")
}

// benchWrites is the write path of the 200-object store: rounds of 64
// objects published into it, then taken out again — so that it returns to
// its size — with its own clock over the inserts or over the removals
// (b.StopTimer reads the memory statistics, which costs more than a round),
// reported as the benchmark's ns/op. B/op and allocs/op cover both halves.
func benchWrites(b *testing.B, timeInserts bool) {
	const k, round = 32, 64
	p, _ := benchStore()
	rng := rand.New(rand.NewSource(8))
	var slots [round]Slot
	for i := range slots {
		id := kautz.Random(rng, k)
		for id[0] != '0' {
			id = kautz.Random(rng, k)
		}
		slots[i] = newSlot(kautz.Rank(id), string(id)+fmt.Sprintf("w%02d", i), k, 1)
	}
	row := []float64{1}
	var inserts, removals time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += round {
		start := time.Now()
		for i := range slots {
			p.addObject(slots[i], row)
		}
		mid := time.Now()
		for i := range slots {
			if !p.removeObject(slots[i].Key, slots[i].Rec()[k:], row) {
				b.Fatalf("object %q not found", slots[i].Rec())
			}
		}
		inserts, removals = inserts+mid.Sub(start), removals+time.Since(mid)
	}
	timed := removals
	if timeInserts {
		timed = inserts
	}
	b.ReportMetric(float64(timed.Nanoseconds())/float64((b.N+round-1)/round*round), "ns/op")
}

// BenchmarkStoreInsert and BenchmarkStoreRemove measure one publish into and
// one unpublish from a peer holding 200 to 264 objects: a binary search over
// the keys, then one shift of the slots and one of the column.
func BenchmarkStoreInsert(b *testing.B) { benchWrites(b, true) }
func BenchmarkStoreRemove(b *testing.B) { benchWrites(b, false) }
