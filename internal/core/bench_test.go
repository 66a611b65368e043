package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// buildBench is buildSingle plus the published ObjectIDs, in publish order.
func buildBench(tb testing.TB, peers, objects int) (*Engine, []kautz.Str) {
	tb.Helper()
	eng, objs := buildSingle(tb, peers, objects, 7)
	oids := make([]kautz.Str, len(objs))
	for i, o := range objs {
		var err error
		if oids[i], err = eng.Tree().Hash(o.Values...); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, oids
}

// The per-hop path allocates nothing and the result lives on the caller's
// stack until it is returned, so a whole lookup stays within a fixed handful
// of allocations however long its descent: the objects, their values and the
// pointer result of the variadic entry point (the subregion split stays in
// locate's frame).
func TestLookupAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	eng, oids := buildBench(t, 1000, 2000)
	ctx := context.Background()
	issuers := eng.Network().PeerIDs()
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if _, err := eng.Lookup(ctx, issuers[i%len(issuers)], oids[i%len(oids)]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("Lookup at 1,000 peers allocates %.1f times per query, ceiling is 5", allocs)
	}
}

// A replicated delivery costs no allocation a plain one does not: the scan a
// replica serves is bounded by the owner's prefix where it runs (the owner is
// compared with the region's bounds, no bound string is built), so the same
// wide range allocates alike at replication degree 1 and 2.
func TestReplicatedDeliveryAllocs(t *testing.T) {
	ctx, lo, hi := context.Background(), []float64{200}, []float64{500}
	var perQuery [2]float64
	for i := range perQuery {
		eng, _ := buildBench(t, 300, 600)
		if err := eng.Network().SetReplicas(i + 1); err != nil {
			t.Fatal(err)
		}
		issuer := eng.Network().PeerIDs()[0]
		res, err := eng.RangeQuery(ctx, issuer, lo, hi)
		if err != nil || res.Stats.DestPeers < 30 {
			t.Fatalf("test range reaches %d destinations (%v), want ≥ 30", res.Stats.DestPeers, err)
		}
		// The least of several single runs: a query that found the pool empty —
		// the first, and any the race detector's sync.Pool dropped the state
		// for — rebuilds its buffers, which is not what is compared here.
		perQuery[i] = math.Inf(1)
		for run := 0; run < 20; run++ {
			perQuery[i] = min(perQuery[i], testing.AllocsPerRun(1, func() {
				if _, err := eng.RangeQuery(ctx, issuer, lo, hi); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	if perQuery[1] > perQuery[0] {
		t.Fatalf("a range over ≥ 30 destinations allocates %.1f times at replication degree 2, %.1f at degree 1", perQuery[1], perQuery[0])
	}
}

var sinkQueue int

// BenchmarkStep measures one forward step of the descent: a peer above the
// destination level evaluating the pruning predicates on its out-neighbors
// and queueing the survivors.
func BenchmarkStep(b *testing.B) {
	eng, oids := buildBench(b, 10000, 1)
	// Descend a lookup to collect its forward messages, then replay them.
	issuer := eng.net.PeerIDs()[0]
	st := eng.newState(QueryConfig{}, issuer, nil)
	defer st.release()
	from, _ := eng.net.Slot(issuer)
	key := kautz.Rank(oids[0])
	eng.enter(st, from, kautz.Span{Lo: key, Hi: key})
	var steps []msg
	for st.head < len(st.queue) {
		m := st.queue[st.head]
		st.head++
		if m.h > 0 {
			steps = append(steps, m)
			eng.forward(st, m)
		}
	}
	if len(steps) == 0 {
		b.Fatal("descent had no forward step")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.queue = st.queue[:0]
		eng.forward(st, steps[i%len(steps)])
		sinkQueue += len(st.queue)
	}
}

func BenchmarkLookup10k(b *testing.B) {
	eng, oids := buildBench(b, 10000, 20000)
	ctx := context.Background()
	issuers := eng.Network().PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Lookup(ctx, issuers[(i*7919)%len(issuers)], oids[i%len(oids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRange10k(b *testing.B) {
	eng, _ := buildBench(b, 10000, 20000)
	ctx := context.Background()
	issuers := eng.Network().PeerIDs()
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 997
		if _, err := eng.RangeQuery(ctx, issuers[(i*7919)%len(issuers)], []float64{lo}, []float64{lo + 2.5}); err != nil {
			b.Fatal(err)
		}
	}
}
