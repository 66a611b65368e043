package fissione

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"armada/internal/kautz"
)

// refStore is the naive reference model of a peer store: the map the
// pre-index implementation used, queried by filter-and-sort. The ordered
// index must agree with it byte for byte on every operation.
type refStore map[kautz.Str][]Object

func (ref refStore) add(id kautz.Str, obj Object) { ref[id] = append(ref[id], obj) }

func (ref refStore) remove(id kautz.Str, obj Object) bool {
	objs := ref[id]
	for i, o := range objs {
		if o.Name != obj.Name || !reflect.DeepEqual(o.Values, obj.Values) {
			continue
		}
		objs = append(objs[:i], objs[i+1:]...)
		if len(objs) == 0 {
			delete(ref, id)
		} else {
			ref[id] = objs
		}
		return true
	}
	return false
}

func (ref refStore) count() int {
	n := 0
	for _, objs := range ref {
		n += len(objs)
	}
	return n
}

// inRegion is the old O(store) scan-and-sort, kept as the oracle.
func (ref refStore) inRegion(r kautz.Region) []StoredObject {
	var out []StoredObject
	for id, objs := range ref {
		if !r.Contains(id) {
			continue
		}
		for _, o := range objs {
			out = append(out, StoredObject{ObjectID: id, Object: o})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ObjectID != out[j].ObjectID {
			return out[i].ObjectID < out[j].ObjectID
		}
		return out[i].Object.Name < out[j].Object.Name
	})
	return out
}

func (ref refStore) all(k int) []StoredObject {
	return ref.inRegion(kautz.Region{Low: kautz.MinExtend("", k), High: kautz.MaxExtend("", k)})
}

// refObject derives an object deterministically from a small name space so
// that equal (ObjectID, Name) pairs always carry equal Values — ties are
// then identical elements and any tie order is byte-identical.
func refObject(rng *rand.Rand) Object {
	n := rng.Intn(40)
	return Object{Name: fmt.Sprintf("n%02d", n), Values: []float64{float64(n), float64(n % 7)}}
}

// TestOrderedIndexMatchesReference drives a random publish / unpublish /
// region-query / scan / count sequence against both the ordered index and
// the naive reference, requiring identical results throughout.
func TestOrderedIndexMatchesReference(t *testing.T) {
	const k = 12
	rng := rand.New(rand.NewSource(4242))
	p := newPeer("0")
	ref := refStore{}
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
			p.addObject(id, obj)
			ref.add(id, obj)
		case op < 6: // unpublish, often of something absent
			id, obj := randomID(), refObject(rng)
			if got, want := p.removeObject(id, obj), ref.remove(id, obj); got != want {
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
			if got, want := p.ObjectCount(), ref.count(); got != want {
				t.Fatalf("step %d: ObjectCount = %d, want %d", step, got, want)
			}
			if got, want := p.AllObjects(), ref.all(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: AllObjects diverged:\n got %v\nwant %v", step, got, want)
			}
		}
	}
}

// viewOf copies out what one View hands its callback (nil when the run is
// empty), failing the property tests' shared expectation — exactly one call
// — by panicking.
func viewOf(p *Peer, own kautz.Str, r kautz.Region, after kautz.Str) (out []StoredObject) {
	calls := 0
	p.View(own, r, after, func(run []StoredObject) {
		calls++
		out = append(out, run...)
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
			p.addObject(id, refObject(rng))
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
			ref := refStore{}
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
					got, want := netInRegion(wholeSpace), ref.all(k)
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
		refSrc, refDst := refStore{}, refStore{}
		for i := 0; i < 120; i++ {
			id, obj := kautz.Random(rng, k), refObject(rng)
			src.addObject(id, obj)
			refSrc.add(id, obj)
			if rng.Intn(3) == 0 { // dst starts non-empty to exercise merging
				id2, obj2 := kautz.Random(rng, k), refObject(rng)
				dst.addObject(id2, obj2)
				refDst.add(id2, obj2)
			}
		}
		prefix := kautz.Random(rng, k)[:1+rng.Intn(3)]
		src.moveObjectsWithPrefix(prefix, dst)
		for id, objs := range refSrc {
			if id.HasPrefix(prefix) {
				refDst[id] = append(refDst[id], objs...)
				delete(refSrc, id)
			}
		}
		if got, want := src.AllObjects(), refSrc.all(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: source after move of %q diverged:\n got %v\nwant %v", trial, prefix, got, want)
		}
		if got, want := dst.AllObjects(), refDst.all(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: destination after move of %q diverged:\n got %v\nwant %v", trial, prefix, got, want)
		}

		src.moveAllObjects(dst)
		for id, objs := range refSrc {
			refDst[id] = append(refDst[id], objs...)
			delete(refSrc, id)
		}
		if src.ObjectCount() != 0 {
			t.Fatalf("trial %d: source not empty after moveAllObjects", trial)
		}
		if got, want := dst.AllObjects(), refDst.all(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: destination after moveAllObjects diverged", trial)
		}

		if lost := dst.clearStore(); lost != refDst.count() {
			t.Fatalf("trial %d: clearStore dropped %d, want %d", trial, lost, refDst.count())
		}
		if dst.ObjectCount() != 0 || len(dst.AllObjects()) != 0 {
			t.Fatalf("trial %d: store not empty after clearStore", trial)
		}
	}
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
		p.addObject(ids[i], Object{Name: fmt.Sprintf("o%03d", i), Values: []float64{float64(i)}})
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
		p.View("", r, "", func(run []StoredObject) {
			for j := range run {
				visited++
				sum += run[j].Object.Values[0]
			}
		})
	}
	if visited != 100*b.N || sum == 0 {
		b.Fatalf("visited %d objects in %d views, want 100 each", visited, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/object")
}
