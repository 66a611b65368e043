package armada

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentPublishQueryChurn exercises the two-tier locking scheme
// under -race: publishers and unpublishers run under the topology read
// lock (serialized per peer by the store locks) while queries — plain,
// paginated and streaming — read concurrently and churners take the write
// lock. The network carries a route cache too small for the traffic, so
// seeded queries, learning descents and evictions race as well. Afterwards
// every invariant must hold and the surviving data must be exactly queryable.
func TestConcurrentPublishQueryChurn(t *testing.T) {
	net, err := NewNetwork(120, WithSeed(99), WithShortcutTable(16))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var queries atomic.Int64 // completed by the two query workers
	var wg sync.WaitGroup

	// Four publishers ingest disjoint name spaces in the [0, 500) band;
	// each records what it successfully published so it can unpublish half
	// of it again. Crash churn may lose objects, making unpublish misses
	// (ErrNoSuchObject) expected.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; !stop.Load(); i++ {
				name := fmt.Sprintf("w%d-%05d", w, i)
				v := rng.Float64() * 500
				if err := net.Publish(name, v); err != nil {
					t.Errorf("publish %s: %v", name, err)
					return
				}
				if i%2 == 0 {
					if err := net.Unpublish(name, v); err != nil && !errors.Is(err, ErrNoSuchObject) {
						t.Errorf("unpublish %s: %v", name, err)
						return
					}
				}
			}
		}(w)
	}

	// Two query workers: one paging, one mixing full queries and streams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2000))
		for !stop.Load() {
			lo := rng.Float64() * 400
			offset := ""
			for {
				opts := []QueryOption{WithLimit(64)}
				if offset != "" {
					opts = append(opts, WithOffsetID(offset))
				}
				res, err := net.Do(context.Background(), NewRange([]Range{{Low: lo, High: lo + 100}}, opts...))
				if err != nil {
					t.Errorf("paged query: %v", err)
					return
				}
				queries.Add(1)
				if res.NextOffsetID == "" {
					break
				}
				offset = res.NextOffsetID
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3000))
		for !stop.Load() {
			queries.Add(1)
			lo := rng.Float64() * 400
			q := NewRange([]Range{{Low: lo, High: lo + 80}})
			if rng.Intn(2) == 0 {
				if _, err := net.Do(context.Background(), q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				continue
			}
			for _, err := range net.Stream(context.Background(), NewRange([]Range{{Low: lo, High: lo + 80}}, WithLimit(32))) {
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
			}
		}
	}()

	// One churner mutating the topology throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4000))
		for i := 0; i < 80; i++ {
			switch x := rng.Intn(4); {
			case x < 2 || net.Size() < 40:
				if _, err := net.Join(); err != nil {
					t.Errorf("join: %v", err)
					return
				}
			case x == 2:
				if err := net.Leave(net.RandomPeer()); err != nil &&
					!errors.Is(err, ErrNoSuchPeer) && !errors.Is(err, ErrTooSmall) {
					t.Errorf("leave: %v", err)
					return
				}
			default:
				if err := net.Fail(net.RandomPeer()); err != nil &&
					!errors.Is(err, ErrNoSuchPeer) && !errors.Is(err, ErrTooSmall) {
					t.Errorf("fail: %v", err)
					return
				}
			}
		}
		// A fast churner must not end the storm before the readers raced it.
		for queries.Load() < 400 && !t.Failed() {
			runtime.Gosched()
		}
		stop.Store(true)
	}()

	wg.Wait()
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after storm: %v", err)
	}
	if st, _ := net.ShortcutTableStats(); st.Hits == 0 || st.Evicted == 0 {
		t.Errorf("route cache %+v; the storm should have hit it and evicted from it", st)
	}

	// Exactness after the storm: a fresh batch in an untouched band, read
	// back both whole and paged.
	pubs := make([]Publication, 80)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("fresh-%02d", i), Values: []float64{600 + float64(i)}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	full, err := net.Do(context.Background(), NewRange([]Range{{Low: 599.5, High: 679.5}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Objects) != 80 {
		t.Fatalf("exactness query found %d objects, want 80", len(full.Objects))
	}
	var paged int
	offset := ""
	for {
		opts := []QueryOption{WithLimit(9)}
		if offset != "" {
			opts = append(opts, WithOffsetID(offset))
		}
		res, err := net.Do(context.Background(), NewRange([]Range{{Low: 599.5, High: 679.5}}, opts...))
		if err != nil {
			t.Fatal(err)
		}
		paged += len(res.Objects)
		if res.NextOffsetID == "" {
			break
		}
		offset = res.NextOffsetID
	}
	if paged != 80 {
		t.Fatalf("paged exactness walk found %d objects, want 80", paged)
	}
}

// TestLookupRacesPublisherOnOnePeer pins the single-run read path: a lookup
// counts its run under one acquisition of the owner's store lock and copies
// it under another, so however a publisher on that same peer interleaves,
// every result is one instant of the store — all the settled objects in
// order, nothing twice, only the publisher's names besides — in a slice
// showing no spare capacity (the count is off whenever a publish landed in
// between, and the copy is clipped to what it holds). Run under -race.
func TestLookupRacesPublisherOnOnePeer(t *testing.T) {
	net, err := NewNetwork(24, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const v, settled = 417.25, 40
	for i := 0; i < settled; i++ {
		if err := net.Publish(fmt.Sprintf("s%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // every publish lands under the looked-up ObjectID, on its owner
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			name := fmt.Sprintf("w%d", i%7)
			if err := net.Publish(name, v); err != nil {
				t.Errorf("publish %s: %v", name, err)
				return
			}
			if err := net.Unpublish(name, v); err != nil {
				t.Errorf("unpublish %s: %v", name, err)
				return
			}
		}
	}()
	check := func(res *Result, racing bool) {
		next := 0
		for i, o := range res.Objects {
			if i > 0 && o.Name <= res.Objects[i-1].Name {
				t.Fatalf("objects out of order or repeated: %q after %q", o.Name, res.Objects[i-1].Name)
			}
			switch {
			case o.Name == fmt.Sprintf("s%02d", next):
				next++
			case !racing || o.Name[0] != 'w':
				t.Fatalf("unexpected object %q (settled objects seen so far: %d)", o.Name, next)
			}
		}
		if next != settled {
			t.Fatalf("lookup returned %d of the %d settled objects", next, settled)
		}
		if cap(res.Objects) != len(res.Objects) {
			t.Fatalf("result holds %d objects in a slice sized for %d", len(res.Objects), cap(res.Objects))
		}
	}
	q := NewValueLookup([]float64{v})
	for i := 0; i < 3000; i++ {
		res, err := net.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		check(res, true)
	}
	stop.Store(true)
	wg.Wait()
	res, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	check(res, false)
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMIRARacesPublishers: a MIRA range admits a boundary run's objects once,
// under one lock acquisition of its store, and counts an inside run before
// re-reading it whole, so however two publishers interleave with it every
// result is well formed — in (ObjectID,
// Name) order with nothing twice, every object inside the box and every
// settled one present, in a slice sized exactly to it — and once they stop,
// every box's result is exactly what the oracle holds and the network audits
// clean. Run under -race.
func TestMIRARacesPublishers(t *testing.T) {
	net, err := NewNetwork(200, WithSeed(17), WithReplication(2),
		WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: 0, High: 100}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(18))
	settled := make([]Publication, 1500)
	for i := range settled {
		settled[i] = Publication{Name: fmt.Sprintf("s%04d", i), Values: []float64{rng.Float64() * 1000, rng.Float64() * 100}}
	}
	if err := net.PublishBatch(settled); err != nil {
		t.Fatal(err)
	}
	boxes := make([][]Range, 16)
	for i := range boxes {
		lo0, lo1 := rng.Float64()*700, rng.Float64()*70
		boxes[i] = []Range{{Low: lo0, High: lo0 + 300}, {Low: lo1, High: lo1 + 30}}
	}
	inBox := func(box []Range, v []float64) bool {
		return len(v) == 2 && v[0] >= box[0].Low && v[0] <= box[0].High && v[1] >= box[1].Low && v[1] <= box[1].High
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() { // transient objects, each unpublished again, so none survives
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; !stop.Load(); i++ {
				name, v := fmt.Sprintf("w%d-%d", w, i), []float64{rng.Float64() * 1000, rng.Float64() * 100}
				if err := net.Publish(name, v...); err != nil {
					t.Errorf("publish %s: %v", name, err)
					return
				}
				if err := net.Unpublish(name, v...); err != nil {
					t.Errorf("unpublish %s: %v", name, err)
					return
				}
			}
		}()
	}
	check := func(box []Range, racing bool) {
		res, err := net.Do(context.Background(), NewRange(box))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, p := range settled {
			if inBox(box, p.Values) {
				want++
			}
		}
		got := 0
		for i, o := range res.Objects {
			if i > 0 && (o.ID < res.Objects[i-1].ID || o.ID == res.Objects[i-1].ID && o.Name <= res.Objects[i-1].Name) {
				t.Fatalf("objects out of order or repeated: %s/%q after %s/%q", o.ID, o.Name, res.Objects[i-1].ID, res.Objects[i-1].Name)
			}
			if !inBox(box, o.Values) {
				t.Fatalf("object %q at %v outside the box %v", o.Name, o.Values, box)
			}
			switch {
			case o.Name[0] == 's':
				got++
			case !racing:
				t.Fatalf("transient object %q survived its unpublish", o.Name)
			}
		}
		if got != want || cap(res.Objects) != len(res.Objects) {
			t.Fatalf("box %v: %d of the %d settled objects, in a slice of %d with cap %d", box, got, want, len(res.Objects), cap(res.Objects))
		}
	}
	for i := range 600 {
		check(boxes[i%len(boxes)], true)
	}
	stop.Store(true)
	wg.Wait()
	for _, box := range boxes {
		check(box, false)
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedWalkRacesUnpublish: walks paged one object at a time — Do pages
// resumed at their cursor, and a Session's positional pages — race a churner
// that unpublishes and republishes objects interleaved with the settled ones,
// under PIRA and MIRA, over the whole space (every run inside the box) and a
// part of it (boundary runs too). A page is counted under one acquisition of
// a store's lock and written under another, so the churner lands between
// them; still every page holds at most its limit bar a tie, its cursor is its
// last ObjectID, objects arrive in (ObjectID, Name) order with nothing twice,
// every one inside the range, and every settled object is walked. Run under
// -race.
func TestPagedWalkRacesUnpublish(t *testing.T) {
	for _, attrs := range [][]AttributeSpace{{{Low: 0, High: 1000}}, {{Low: 0, High: 1000}, {Low: 0, High: 100}}} {
		t.Run(fmt.Sprintf("m=%d", len(attrs)), func(t *testing.T) {
			net, err := NewNetwork(40, WithSeed(23), WithAttributes(attrs...))
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			rng := rand.New(rand.NewSource(24))
			pubs := func(prefix string) []Publication {
				out := make([]Publication, 150)
				for i := range out {
					v := make([]float64, len(attrs))
					for j, a := range attrs {
						v[j] = a.Low + rng.Float64()*(a.High-a.Low)
					}
					out[i] = Publication{Name: fmt.Sprintf("%s%03d", prefix, i), Values: v}
				}
				return out
			}
			settled, churned := pubs("s"), pubs("c")
			if err := net.PublishBatch(append(slices.Clone(settled), churned...)); err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					p := churned[i%len(churned)]
					if err := net.Unpublish(p.Name, p.Values...); err != nil {
						t.Errorf("unpublish %s: %v", p.Name, err)
						return
					}
					if err := net.Publish(p.Name, p.Values...); err != nil {
						t.Errorf("publish %s: %v", p.Name, err)
						return
					}
				}
			}()
			defer func() { stop.Store(true); wg.Wait() }()

			whole, part := make([]Range, len(attrs)), make([]Range, len(attrs))
			for j, a := range attrs {
				w := a.High - a.Low
				whole[j], part[j] = Range{Low: a.Low, High: a.High}, Range{Low: a.Low + w/10, High: a.High - w/10}
			}
			ctx := context.Background()
			for round := range 6 {
				box := [][]Range{whole, part}[round%2]
				in := func(v []float64) bool {
					for j, r := range box {
						if v[j] < r.Low || v[j] > r.High {
							return false
						}
					}
					return true
				}
				var sess *Session
				if round%4 >= 2 {
					if sess, err = net.OpenSession(NewRange(box), WithLimit(1)); err != nil {
						t.Fatal(err)
					}
				}
				var walked []Object
				for cursor, pages := "", 0; ; pages++ {
					var page *Result
					if sess != nil {
						page, err = sess.Next(ctx)
					} else {
						page, err = net.Do(ctx, NewRange(box, WithLimit(1), WithOffsetID(cursor)))
					}
					if err != nil {
						t.Fatal(err)
					}
					objs := page.Objects
					if n := len(objs); n > 1 && objs[0].ID != objs[n-1].ID {
						t.Fatalf("round %d page %d: %d objects over several ObjectIDs at limit 1", round, pages, n)
					} else if n > 0 && page.NextOffsetID != "" && page.NextOffsetID != objs[n-1].ID {
						t.Fatalf("round %d page %d: cursor %q is not the page's last ObjectID %q", round, pages, page.NextOffsetID, objs[n-1].ID)
					}
					for _, o := range objs {
						if !in(o.Values) {
							t.Fatalf("round %d: object %q at %v outside %v", round, o.Name, o.Values, box)
						}
						if k := len(walked); k > 0 && cmp.Or(cmp.Compare(o.ID, walked[k-1].ID), cmp.Compare(o.Name, walked[k-1].Name)) <= 0 {
							t.Fatalf("round %d: %s/%q after %s/%q", round, o.ID, o.Name, walked[k-1].ID, walked[k-1].Name)
						}
						walked = append(walked, o)
					}
					if cursor = page.NextOffsetID; cursor == "" {
						break
					}
				}
				seen := make(map[string]bool, len(walked))
				for _, o := range walked {
					seen[o.Name] = true
				}
				for _, p := range settled {
					if in(p.Values) && !seen[p.Name] {
						t.Fatalf("round %d: the walk ended after %d objects without settled %q at %v", round, len(walked), p.Name, p.Values)
					}
				}
			}
		})
	}
}
