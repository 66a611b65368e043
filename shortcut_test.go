package armada

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"armada/internal/core"
	"armada/internal/kautz"
)

// TestShortcutByteIdentityUnderChurn is the route cache's end-to-end
// property test: two identically seeded networks — one with a cache small
// enough to evict, one without — are driven in lockstep through 2,400 seeded
// steps of publishes, unpublishes, lookups, ranges, paged session walks (with
// churn between their pages), streams drained and left early, top-k queries,
// joins, leaves, crash-stops, region splits and ownership migrations, over one
// and two attributes,
// replication degrees 1–3 and every read policy. Every result must be
// byte-identical between the two — objects, destinations, cursor, owner — and
// both networks audit clean: a learned owner can go stale at any moment, and a
// stale one may cost the descent it would have saved, never results.
// (TestConcurrentPublishQueryChurn races seeded queries, learning descents and
// evictions under -race.)
func TestShortcutByteIdentityUnderChurn(t *testing.T) {
	cases := []struct {
		attrs, k int
		pol      ReadPolicy
	}{
		{1, 1, ReadDefault}, {2, 1, ReadDefault}, {1, 2, ReadRoundRobin},
		{2, 2, ReadPrimary}, {1, 3, ReadLeastLoaded}, {2, 3, ReadRoundRobin},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("attrs=%d/k=%d/%v", c.attrs, c.k, c.pol), func(t *testing.T) {
			byteIdentityUnderChurn(t, c.attrs, c.k, c.pol, int64(61+i))
		})
	}
}

func byteIdentityUnderChurn(t *testing.T, attrs, k int, pol ReadPolicy, seed int64) {
	opts := []Option{WithSeed(seed), WithReplication(k)}
	if attrs == 2 {
		opts = append(opts, WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: 0, High: 100}))
	}
	base, err := NewNetwork(120, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewNetwork(120, append(opts, WithShortcutTable(96))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, rng := context.Background(), rand.New(rand.NewSource(seed))
	// A replica's name in Object.Peer is a policy choice, not result content.
	objects := func(r *Result) []Object {
		if k > 1 && pol != ReadPrimary {
			return stripPeers(r.Objects)
		}
		return r.Objects
	}
	same := func(what string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(objects(got), objects(want)) || got.NextOffsetID != want.NextOffsetID ||
			got.Owner != want.Owner || !reflect.DeepEqual(got.Destinations, want.Destinations) {
			t.Fatalf("%s: cached network diverged from the cache-less one\nbase: %d objects at %v, next %q\nfast: %d objects at %v, next %q",
				what, len(want.Objects), want.Destinations, want.NextOffsetID, len(got.Objects), got.Destinations, got.NextOffsetID)
		}
	}
	mirror := func(what string, f func(*Network) error) {
		t.Helper()
		if e1, e2 := f(base), f(fast); (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s: base err %v, cached err %v", what, e1, e2)
		}
	}
	peer := func() string { ids := base.PeerIDs(); return ids[rng.Intn(len(ids))] }
	compare := func(what string, q Query) *Result {
		t.Helper()
		q.Issuer, q.ReadPolicy = peer(), pol
		want, err1 := base.Do(ctx, q)
		got, err2 := fast.Do(ctx, q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: base err %v, cached err %v", what, err1, err2)
		}
		same(what, got, want)
		return want
	}
	// Hot keys on a grid, so regions repeat and the cache has something to hit.
	values := func() []float64 {
		return []float64{float64(rng.Intn(40))*25 + rng.Float64()*5, rng.Float64() * 100}[:attrs]
	}
	box := func() []Range {
		lo, lo2 := float64(rng.Intn(20))*50, float64(rng.Intn(4))*25
		return []Range{{Low: lo, High: lo + []float64{5, 30, 60}[rng.Intn(3)]}, {Low: lo2, High: lo2 + 25}}[:attrs]
	}
	churn := func(what string) {
		t.Helper()
		switch victim, other := peer(), peer(); rng.Intn(5) {
		case 0:
			mirror(what+" join", func(n *Network) error { _, err := n.Join(); return err })
		case 1:
			mirror(what+" leave", func(n *Network) error { return n.Leave(victim) })
		case 2:
			mirror(what+" fail", func(n *Network) error { return n.Fail(victim) })
		case 3:
			mirror(what+" split", func(n *Network) error { _, err := n.splitRegion(victim); return err })
		case 4:
			mirror(what+" migrate", func(n *Network) error { _, err := n.migrateOwnership(victim, other); return err })
		}
	}

	// Enough objects, never unpublished, that a whole-space stream spans pages.
	for i := 0; i < streamPage+200; i++ {
		p := Publication{Name: fmt.Sprintf("pre%d", i), Values: values()}
		mirror("preload", func(n *Network) error { return n.Publish(p.Name, p.Values...) })
	}
	var (
		live        []Publication
		pagedStream bool
	)
	for step := 0; step < 400; step++ {
		what := fmt.Sprintf("step %d", step)
		switch r := rng.Intn(100); {
		case r < 15:
			p := Publication{Name: fmt.Sprintf("o%d", step), Values: values()}
			mirror(what+" publish", func(n *Network) error { return n.Publish(p.Name, p.Values...) })
			live = append(live, p)
		case r < 22 && len(live) > 0:
			i := rng.Intn(len(live))
			p := live[i]
			live[i], live = live[len(live)-1], live[:len(live)-1]
			mirror(what+" unpublish", func(n *Network) error { return n.Unpublish(p.Name, p.Values...) })
		case r < 40 && len(live) > 0:
			compare(what+" lookup", NewValueLookup(live[rng.Intn(len(live))].Values))
		case r < 65:
			compare(what+" range", NewRange(box()))
		case r < 70:
			// A session on the cached network against fresh per-page descents
			// on the other, sometimes with churn between two pages.
			q := NewRange(box(), WithLimit(4), WithIssuer(peer()), WithReadPolicy(pol))
			sess, err := fast.OpenSession(q)
			if err != nil {
				t.Fatal(err)
			}
			for page := 0; sess.More(); page++ {
				if !slices.Contains(base.PeerIDs(), q.Issuer) { // it churned out mid-walk; the session re-pins too
					q.Issuer = peer()
				}
				want, err1 := base.Do(ctx, q)
				got, err2 := sess.Next(ctx)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s page %d: base err %v, session err %v", what, page, err1, err2)
				}
				// A positional page lists the owners it addressed, not every owner
				// ahead of the cursor: each is one the fresh Do reached too, but for
				// the cursor's own owner when the cursor is the last ObjectID it holds.
				if dests := got.Destinations; got.Stats.ShortcutHits == 0 && got.Stats.DescentsSaved == 1 && len(dests) > 0 {
					if dests[0] == ownerOf(t, fast, q.OffsetID) {
						dests = dests[1:]
					}
					for _, d := range dests {
						if !slices.Contains(want.Destinations, d) {
							t.Fatalf("%s page %d: the session addressed %s, which a fresh Do from the cursor does not reach (%v)", what, page, d, want.Destinations)
						}
					}
					got.Destinations = want.Destinations
				}
				same(fmt.Sprintf("%s page %d", what, page), got, want)
				q.OffsetID = want.NextOffsetID
				if rng.Intn(3) == 0 {
					churn(what + " mid-walk")
				}
			}
		case r < 75:
			compare(what+" top-k", NewRange(box(), WithTopK(5)))
		case r < 80:
			// A stream on the cached network — drained, or left early — against
			// the other network's Do; one in three covers the whole space, whose
			// preload takes it past its first page.
			ranges := box()
			if rng.Intn(3) == 0 {
				ranges = []Range{{Low: 0, High: 1000}, {Low: 0, High: 100}}[:attrs]
			}
			q := NewRange(ranges, WithIssuer(peer()), WithReadPolicy(pol))
			want, err := base.Do(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			stop := rng.Intn(2*len(want.Objects) + 1)   // at or past the end: drained
			got := &Result{Objects: want.Objects[:0:0]} // nil exactly when Do's are
			for o, err := range fast.Stream(ctx, q) {
				if err != nil {
					t.Fatalf("%s stream: %v", what, err)
				}
				if len(got.Objects) == stop {
					break
				}
				got.Objects = append(got.Objects, o)
			}
			want.Objects = want.Objects[:min(stop, len(want.Objects))]
			if !reflect.DeepEqual(objects(got), objects(want)) {
				t.Fatalf("%s: the cached network's stream yielded %d objects, not the first %d of the cache-less Do's", what, len(got.Objects), len(want.Objects))
			}
			pagedStream = pagedStream || len(got.Objects) > streamPage
		default:
			churn(what)
		}
		if step%100 == 99 {
			if f1, f2 := base.TopologyFingerprint(), fast.TopologyFingerprint(); f1 != f2 {
				t.Fatalf("%s: the networks fell out of lockstep", what)
			}
			for _, n := range []*Network{base, fast} {
				if err := n.Audit(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
	st, _ := fast.ShortcutTableStats()
	if st.Hits == 0 || st.Misses == 0 || st.Stale == 0 || st.Evicted == 0 {
		t.Fatalf("cache stats %+v; want hits, misses, entries staled by churn and evictions all exercised", st)
	}
	if !pagedStream {
		t.Fatal("no stream ran past its first page")
	}
}

// TestRouteCacheInvalidationIsRegionScoped: a topology change costs the cache
// exactly the owners it renamed or released. Two warm ranges far apart are
// queried after every kind of change; each must be seeded exactly when every
// owner it delivers to is one a descent taught — that identifier, in the slot
// it holds now — so churn elsewhere keeps a hit, and a split, merge, crash or
// migration of a cached owner, or its slot coming back under another name,
// misses once and is re-learned. A replication-degree change stales nothing:
// replica groups are read from the live topology at delivery, never learned.
func TestRouteCacheInvalidationIsRegionScoped(t *testing.T) {
	net, _ := cachedNetwork(t, 300, 21, WithShortcutTable(1024))
	ctx := context.Background()
	slotOf := func(id string) int32 { s, _ := net.net.Slot(kautz.Str(id)); return s }
	known := map[int32]string{} // what the cache holds: each slot's last learned owner
	// query runs one range through the cache and reports whether it was seeded,
	// checking that against known and the result against an unpruned flood.
	query := func(what string, r Range) (dests []string, hit bool) {
		t.Helper()
		fresh, err := net.Do(ctx, NewRange([]Range{r}, WithFlood()))
		if err != nil {
			t.Fatal(err)
		}
		hit = true
		for _, d := range fresh.Destinations {
			hit = hit && known[slotOf(d)] == d
		}
		res, err := net.Do(ctx, NewRange([]Range{r}))
		if err != nil {
			t.Fatal(err)
		}
		if (res.Stats.ShortcutHits == 1) != hit || res.Stats.FrontierHits != res.Stats.ShortcutHits {
			t.Fatalf("%s [%v, %v]: %+v; want seeded = %v", what, r.Low, r.High, res.Stats, hit)
		}
		if !reflect.DeepEqual(res.Destinations, fresh.Destinations) || !reflect.DeepEqual(stripPeers(res.Objects), stripPeers(fresh.Objects)) {
			t.Fatalf("%s [%v, %v]: result diverged from the flood's", what, r.Low, r.High)
		}
		for _, d := range res.Destinations {
			known[slotOf(d)] = d
		}
		return res.Destinations, hit
	}
	a, b := Range{Low: 100, High: 160}, Range{Low: 700, High: 760}
	// expect queries both ranges and requires the stated outcomes, then — the
	// misses having re-learned — a hit on both.
	expect := func(what string, hitA, hitB bool) (destsA, destsB []string) {
		t.Helper()
		_, gotA := query(what, a)
		_, gotB := query(what, b)
		if gotA != hitA || gotB != hitB {
			t.Fatalf("%s: range a seeded = %v (want %v), range b seeded = %v (want %v)", what, gotA, hitA, gotB, hitB)
		}
		destsA, gotA = query(what+", re-learned", a)
		destsB, gotB = query(what+", re-learned", b)
		if !gotA || !gotB {
			t.Fatalf("%s: the misses did not re-learn", what)
		}
		return destsA, destsB
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	destsA, destsB := expect("cold", false, false)

	// Churn elsewhere: a crash and a departure outside both ranges' owners.
	outside := func() string {
		for _, id := range net.PeerIDs() {
			if id[0] == '2' && id > destsB[len(destsB)-1] {
				return id
			}
		}
		t.Fatal("no peer above range b")
		return ""
	}
	must(net.Fail(outside()))
	must(net.Leave(outside()))
	destsA, destsB = expect("churn elsewhere", true, true)

	_, err := net.splitRegion(destsA[1])
	must(err)
	destsA, destsB = expect("split of an owner in a", false, true)
	must(net.Leave(destsB[1])) // its sibling, or a relocated peer, takes over
	destsA, destsB = expect("merge of an owner in b", true, false)
	must(net.Fail(destsA[0]))
	destsA, destsB = expect("crash of an owner in a", false, true)
	_, err = net.migrateOwnership(destsB[0], destsA[1])
	must(err)
	destsA, _ = expect("migration from b to a", false, false)

	// A recycled slot: an owner in a leaves, and the next join takes its slot
	// under another name. The entry learned there answers for the old name only.
	victim := destsA[0]
	slot := slotOf(victim)
	must(net.Leave(victim))
	_, err = net.Join()
	must(err)
	tenant := string(net.net.IDAt(slot))
	if tenant == "" || tenant == victim {
		t.Fatalf("slot %d carries %q after %s left and a peer joined; want it recycled under another name", slot, tenant, victim)
	}
	if net.routes.Knows(core.Tile{Slot: slot, ID: kautz.Str(tenant)}) {
		t.Fatalf("the entry learned for %s answers for %s, the slot's new tenant", victim, tenant)
	}
	stale, _ := net.ShortcutTableStats()
	query("whole space", Range{Low: 0, High: 1000})
	if _, hit := query("whole space, re-learned", Range{Low: 0, High: 1000}); !hit {
		t.Fatal("a whole-space descent did not teach every owner")
	}
	if st, _ := net.ShortcutTableStats(); st.Stale <= stale.Stale {
		t.Fatalf("re-learning the recycled slot overwrote no stale entry: %+v after %+v", st, stale)
	}

	net.mu.Lock()
	err = net.net.SetReplicas(2)
	net.mu.Unlock()
	must(err)
	expect("replication degree 1 → 2", true, true)
	if res, err := net.Do(ctx, NewRange([]Range{a})); err != nil || res.Stats.ShortcutHits != 1 || res.Stats.ReplicaServed == 0 {
		t.Fatalf("seeded reads on the now replicated network never reached a replica: %+v, %v", res, err)
	}
	must(net.Audit())
}
