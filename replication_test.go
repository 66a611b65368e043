package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReplicatedK1Identical verifies the migration contract: an explicit
// WithReplication(1) network behaves byte-for-byte like a default one.
func TestReplicatedK1Identical(t *testing.T) {
	a, err := NewNetwork(120, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(120, WithSeed(9), WithReplication(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		name, v := fmt.Sprintf("o-%03d", i), float64(i*3%997)
		if err := a.Publish(name, v); err != nil {
			t.Fatal(err)
		}
		if err := b.Publish(name, v); err != nil {
			t.Fatal(err)
		}
	}
	q := NewRange([]Range{{Low: 100, High: 600}}, WithIssuer(a.PeerIDs()[0]))
	ra, err := a.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("WithReplication(1) result differs from the default network's")
	}
	if ra.Stats.ReplicaServed != 0 {
		t.Fatalf("unreplicated query reports %d replica-served deliveries", ra.Stats.ReplicaServed)
	}
}

// TestReplicaReadsExactAndSpread holds the one replica-read rule at k = 3:
// deliveries rotate through each owner's group, so replicas serve some of
// them, and every read still returns exactly what a brute-force filter over
// the published objects does — plain, flood and paged. The trace shows the
// cost: a descent's Messages are its forward hops plus one redirect hop per
// replica-served delivery, and a query seeded by the route cache addresses
// the serving replica directly, so it sends no redirect message.
func TestReplicaReadsExactAndSpread(t *testing.T) {
	net, err := NewNetwork(150, WithSeed(11), WithReplication(3), WithShortcutTable(256))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var all []admissionCase
	for i := 0; i < 600; i++ {
		name, v := fmt.Sprintf("obj-%04d", i), rng.Float64()*1000
		if err := net.Publish(name, v); err != nil {
			t.Fatal(err)
		}
		id, _ := net.tree.Hash(v)
		all = append(all, admissionCase{name: name, vals: []float64{v}, id: string(id)})
	}
	issuer := net.PeerIDs()[3]
	ranges := []Range{{Low: 50, High: 700}}
	want := bruteRange(all, []float64{50}, []float64{700})
	ctx := context.Background()

	// traced runs q with a trace and splits its hops: deliveries served by
	// their owner (From == To), and the rest.
	traced := func(q Query) (res *Result, owned, others int) {
		t.Helper()
		q.Trace = func(h Hop) {
			if h.Remaining == 0 && h.From == h.To {
				owned++
			} else {
				others++
			}
		}
		res, err := net.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res, owned, others
	}

	// A descent: each delivery is one hop, owner-served or redirected; every
	// other hop is a forward. Messages count the forwards and the redirects.
	res, owned, others := traced(NewRange(ranges, WithIssuer(issuer)))
	sameObjects(t, "range", res.Objects, want)
	s := res.Stats
	redirects := s.Deliveries - owned
	if s.DescentsSaved != 0 || redirects == 0 || s.ReplicaServed != redirects {
		t.Fatalf("descent: %+v, %d redirect hops; want a descent with replica-served deliveries, one redirect each", s, redirects)
	}
	if forwards := others - redirects; s.Messages != forwards+redirects {
		t.Fatalf("descent: Messages %d, %d forward hops + %d redirect hops — redirect accounting broken", s.Messages, forwards, redirects)
	}

	// The same range again is seeded by the route cache: one message to each
	// destination's serving member, replicas included, and no redirect.
	res, owned, others = traced(NewRange(ranges, WithIssuer(issuer)))
	sameObjects(t, "seeded range", res.Objects, want)
	if s := res.Stats; s.DescentsSaved != 1 || s.ReplicaServed == 0 || s.Messages != s.DestPeers || owned+others != 2*s.Deliveries {
		t.Fatalf("seeded: %+v over %d hops; want replica serves at one message and one delivery hop per destination", s, owned+others)
	}

	fl, err := net.Do(ctx, NewRange(ranges, WithIssuer(issuer), WithFlood()))
	if err != nil {
		t.Fatal(err)
	}
	sameObjects(t, "flood", fl.Objects, want)
	if fl.Stats.ReplicaServed == 0 {
		t.Fatal("flood: no delivery served by a replica")
	}

	// Paged walks must concatenate to the oracle under spreading.
	var walked []Object
	q := NewRange(ranges, WithIssuer(issuer), WithLimit(37))
	for {
		res, err := net.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, res.Objects...)
		if res.NextOffsetID == "" {
			break
		}
		q.OffsetID = res.NextOffsetID
	}
	sameObjects(t, "paged walk", walked, want)
}

// TestValueLookup covers the value-keyed exact-match query: it finds
// objects Publish stored (name lookups only see PublishExact objects).
func TestValueLookup(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish("alpha", 123.5); err != nil {
		t.Fatal(err)
	}
	res, err := net.Do(context.Background(), NewValueLookup([]float64{123.5}))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range res.Objects {
		if o.Name == "alpha" {
			found = true
		}
	}
	if !found {
		t.Fatalf("value lookup for 123.5 did not find alpha (objects: %v)", res.Objects)
	}
	if _, err := net.Do(context.Background(), NewValueLookup([]float64{1, 2})); err == nil {
		t.Fatal("value lookup with wrong arity accepted")
	}
	if _, err := net.Do(context.Background(), Query{Kind: KindLookup}); err == nil {
		t.Fatal("lookup with neither name nor values accepted")
	}
}

// TestReplicatedChurnStormNoMisses is the crash-stop durability test: on a
// 2-replicated network, concurrent publishers, value-lookups and
// unpublishers run against Join/Leave/Fail churn, and not a single
// unpublish may miss, not a single lookup may come back empty — replication
// must make crash loss unobservable. Run under -race in CI.
func TestReplicatedChurnStormNoMisses(t *testing.T) {
	net, err := NewNetwork(150, WithSeed(31), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}

	// The live pool: objects fully published and not yet claimed for
	// unpublishing, so no two operations ever race on one object.
	type rec struct {
		name string
		val  float64
	}
	var (
		poolMu sync.Mutex
		pool   []rec
	)
	put := func(r rec) { poolMu.Lock(); pool = append(pool, r); poolMu.Unlock() }
	take := func(rng *rand.Rand) (rec, bool) {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(pool) == 0 {
			return rec{}, false
		}
		i := rng.Intn(len(pool))
		r := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return r, true
	}
	peek := func(rng *rand.Rand) (rec, bool) {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(pool) == 0 {
			return rec{}, false
		}
		return pool[rng.Intn(len(pool))], true
	}

	seedRng := rand.New(rand.NewSource(32))
	for i := 0; i < 400; i++ {
		r := rec{name: fmt.Sprintf("seed-%04d", i), val: seedRng.Float64() * 1000}
		if err := net.Publish(r.name, r.val); err != nil {
			t.Fatal(err)
		}
		put(r)
	}

	var (
		churner   sync.WaitGroup
		workers   sync.WaitGroup
		churnDone atomic.Bool
		misses    atomic.Int64
		lookups   atomic.Int64
		seq       atomic.Int64
	)

	// Churner: joins, leaves and crashes; each event triggers synchronous
	// re-replication under the write lock.
	churner.Add(1)
	go func() {
		defer churner.Done()
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < 120; i++ {
			switch x := rng.Intn(4); {
			case x < 2 || net.Size() < 60:
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
	}()

	// Writers: publish new objects and unpublish pooled ones. Every
	// unpublish must find its object — a miss is a durability violation.
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !churnDone.Load() {
				if rng.Intn(2) == 0 {
					r := rec{name: fmt.Sprintf("live-%d", seq.Add(1)), val: rng.Float64() * 1000}
					if err := net.Publish(r.name, r.val); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
					put(r)
				} else if r, ok := take(rng); ok {
					if err := net.Unpublish(r.name, r.val); err != nil {
						if errors.Is(err, ErrNoSuchObject) {
							misses.Add(1)
						} else {
							t.Errorf("unpublish: %v", err)
							return
						}
					}
				}
			}
		}(int64(40 + w))
	}

	// Readers: value-lookups of live objects, rotating through the replicas;
	// the object must be found whichever replica serves.
	for q := 0; q < 2; q++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !churnDone.Load() {
				r, ok := peek(rng)
				if !ok {
					continue
				}
				res, err := net.Do(context.Background(), NewValueLookup([]float64{r.val}))
				if err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				found := false
				for _, o := range res.Objects {
					if o.Name == r.name {
						found = true
						break
					}
				}
				// The object may have been legitimately unpublished between
				// peek and lookup; only count a miss if it is still pooled.
				if !found {
					poolMu.Lock()
					stillLive := false
					for _, p := range pool {
						if p.name == r.name {
							stillLive = true
							break
						}
					}
					poolMu.Unlock()
					if stillLive {
						misses.Add(1)
					}
				}
				lookups.Add(1)
			}
		}(int64(50 + q))
	}

	churner.Wait()
	churnDone.Store(true)
	workers.Wait()

	if got := misses.Load(); got != 0 {
		t.Fatalf("%d availability misses on a 2-replicated network (want 0)", got)
	}
	if lookups.Load() == 0 {
		t.Error("no lookups completed during churn")
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after replicated churn storm: %v", err)
	}
}
