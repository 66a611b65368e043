package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// sizes and fills its result under one acquisition of the owner's store lock,
// so however a publisher on that same peer interleaves, every result is one
// instant of the store — all the settled objects in order, nothing twice,
// only the publisher's names besides — in a slice sized exactly to it (a
// count taken under an earlier acquisition would be off whenever a publish
// landed in between). Run under -race.
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
			t.Fatalf("result holds %d objects in a slice sized for %d: it was not sized under the lock it was filled under", len(res.Objects), cap(res.Objects))
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

// TestMIRARacesPublishers: a MIRA range admits each object once, under the
// one lock acquisition of each serving store it reads, so however two
// publishers interleave with it every result is well formed — in (ObjectID,
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
