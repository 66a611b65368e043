// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark executes the corresponding experiment's workload and
// reports the paper's metrics (hops/query, msgs/query, destpeers/query) via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the evaluation
// series. The armada-bench command produces the full-resolution data.
package armada_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"armada"
	"armada/internal/can"
	"armada/internal/core"
	"armada/internal/dcfcan"
	"armada/internal/experiments"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
	"armada/internal/pht"
	"armada/internal/skipgraph"
)

const (
	benchK     = 32
	benchSpace = 1000.0
)

// benchFig5Net is the paper's Figure 5/6 network size.
const benchFig5Net = 2000

// buildPIRA builds a FISSIONE network with a single-attribute engine.
func buildPIRA(b *testing.B, peers int, seed int64) *core.Engine {
	b.Helper()
	net, err := fissione.BuildRandom(benchK, peers, seed)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := naming.NewSingleTree(benchK, 0, benchSpace)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(net, tree)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// buildDCF builds a CAN network with the DCF range-query scheme.
func buildDCF(b *testing.B, zones int, seed int64) *dcfcan.Scheme {
	b.Helper()
	net, err := can.BuildRandom(zones, seed)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dcfcan.New(net, 9, 0, benchSpace)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// reportPIRA runs b.N random queries of the given width and reports the
// figure metrics.
func reportPIRA(b *testing.B, eng *core.Engine, width float64, seed int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := eng.Network()
	var delay, msgs, dests int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * (benchSpace - width)
		res, err := eng.RangeQuery(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), []float64{lo}, []float64{lo + width})
		if err != nil {
			b.Fatal(err)
		}
		delay += res.Stats.Delay
		msgs += res.Stats.Messages
		dests += res.Stats.DestPeers
	}
	b.ReportMetric(float64(delay)/float64(b.N), "hops/query")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
	b.ReportMetric(float64(dests)/float64(b.N), "destpeers/query")
}

// reportDCF runs b.N random DCF-CAN queries of the given width.
func reportDCF(b *testing.B, s *dcfcan.Scheme, width float64, seed int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	var delay, msgs, dests int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * (benchSpace - width)
		res, err := s.RangeQuery(s.Network().RandomZone(rng), lo, lo+width)
		if err != nil {
			b.Fatal(err)
		}
		delay += res.Stats.Delay
		msgs += res.Stats.Messages
		dests += res.Stats.DestZones
	}
	b.ReportMetric(float64(delay)/float64(b.N), "hops/query")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
	b.ReportMetric(float64(dests)/float64(b.N), "destzones/query")
}

// BenchmarkFig5 regenerates Figure 5: query delay at different range sizes,
// N = 2000, for PIRA and DCF-CAN (read hops/query).
func BenchmarkFig5(b *testing.B) {
	sizes := []int{2, 10, 50, 100, 150, 200, 250, 300}
	b.Run("PIRA", func(b *testing.B) {
		eng := buildPIRA(b, benchFig5Net, 1)
		for _, size := range sizes {
			b.Run(fmt.Sprintf("range=%d", size), func(b *testing.B) {
				reportPIRA(b, eng, float64(size), int64(size))
			})
		}
	})
	b.Run("DCF-CAN", func(b *testing.B) {
		s := buildDCF(b, benchFig5Net, 2)
		for _, size := range sizes {
			b.Run(fmt.Sprintf("range=%d", size), func(b *testing.B) {
				reportDCF(b, s, float64(size), int64(size))
			})
		}
	})
}

// BenchmarkFig6 regenerates Figure 6: message cost at different range
// sizes, N = 2000 (read msgs/query and destpeers/query; MesgRatio and
// IncreRatio derive from them).
func BenchmarkFig6(b *testing.B) {
	sizes := []int{2, 50, 150, 300}
	eng := buildPIRA(b, benchFig5Net, 3)
	s := buildDCF(b, benchFig5Net, 4)
	for _, size := range sizes {
		b.Run(fmt.Sprintf("PIRA/range=%d", size), func(b *testing.B) {
			reportPIRA(b, eng, float64(size), int64(size)+10)
		})
		b.Run(fmt.Sprintf("DCF-CAN/range=%d", size), func(b *testing.B) {
			reportDCF(b, s, float64(size), int64(size)+10)
		})
	}
}

// BenchmarkFig7 regenerates Figure 7: query delay at different network
// sizes, range size 20 (read hops/query).
func BenchmarkFig7(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("PIRA/N=%d", n), func(b *testing.B) {
			eng := buildPIRA(b, n, int64(n))
			reportPIRA(b, eng, 20, int64(n)+1)
		})
		b.Run(fmt.Sprintf("DCF-CAN/N=%d", n), func(b *testing.B) {
			s := buildDCF(b, n, int64(n))
			reportDCF(b, s, 20, int64(n)+1)
		})
	}
}

// BenchmarkFig8 regenerates Figure 8: message cost at different network
// sizes, range size 20 (read msgs/query and destpeers/query).
func BenchmarkFig8(b *testing.B) {
	for _, n := range []int{1000, 4000, 8000} {
		b.Run(fmt.Sprintf("PIRA/N=%d", n), func(b *testing.B) {
			eng := buildPIRA(b, n, int64(n)+5)
			reportPIRA(b, eng, 20, int64(n)+6)
		})
		b.Run(fmt.Sprintf("DCF-CAN/N=%d", n), func(b *testing.B) {
			s := buildDCF(b, n, int64(n)+5)
			reportDCF(b, s, 20, int64(n)+6)
		})
	}
}

// BenchmarkTable1 regenerates Table 1's measured column: average delay of
// the three implemented schemes at N = 2000, range size 50.
func BenchmarkTable1(b *testing.B) {
	const width = 50.0
	b.Run("Armada-PIRA", func(b *testing.B) {
		eng := buildPIRA(b, benchFig5Net, 21)
		reportPIRA(b, eng, width, 22)
	})
	b.Run("DCF-CAN", func(b *testing.B) {
		s := buildDCF(b, benchFig5Net, 23)
		reportDCF(b, s, width, 24)
	})
	b.Run("SkipGraph", func(b *testing.B) {
		g, err := skipgraph.Build(benchFig5Net, 0, benchSpace, 28)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		var delay, msgs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rng.Float64() * (benchSpace - width)
			res, err := g.RangeQuery(g.RandomNode(rng), lo, lo+width)
			if err != nil {
				b.Fatal(err)
			}
			delay += res.Stats.Delay
			msgs += res.Stats.Messages
		}
		b.ReportMetric(float64(delay)/float64(b.N), "hops/query")
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
	})
	b.Run("PHT", func(b *testing.B) {
		net, err := fissione.BuildRandom(benchK, benchFig5Net, 25)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.New(net, nil)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := pht.New(eng, 16, 8, 0, benchSpace, 26)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(27))
		for i := 0; i < 2000; i++ {
			tree.Insert(fmt.Sprintf("o%d", i), rng.Float64()*benchSpace)
		}
		var delay, msgs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rng.Float64() * (benchSpace - width)
			res, err := tree.RangeQuery(lo, lo+width)
			if err != nil {
				b.Fatal(err)
			}
			delay += res.Stats.Delay
			msgs += res.Stats.Messages
		}
		b.ReportMetric(float64(delay)/float64(b.N), "hops/query")
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
	})
}

// BenchmarkDelayBound regenerates the Section 4.3.2 bound check: the
// reported max-hops/query must stay below 2·log₂N (≈ 21.9 for N = 2000).
func BenchmarkDelayBound(b *testing.B) {
	eng := buildPIRA(b, benchFig5Net, 31)
	rng := rand.New(rand.NewSource(32))
	net := eng.Network()
	maxDelay := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		width := []float64{2, 20, 200, 900}[i%4]
		lo := rng.Float64() * (benchSpace - width)
		res, err := eng.RangeQuery(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), []float64{lo}, []float64{lo + width})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Delay > maxDelay {
			maxDelay = res.Stats.Delay
		}
	}
	b.ReportMetric(float64(maxDelay), "max-hops")
}

// BenchmarkMIRA regenerates extension EX1: multi-attribute query cost at
// m = 2 attributes, N = 2000.
func BenchmarkMIRA(b *testing.B) {
	net, err := fissione.BuildRandom(benchK, benchFig5Net, 41)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := naming.NewTree(benchK,
		naming.Space{Low: 0, High: benchSpace}, naming.Space{Low: 0, High: benchSpace})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(net, tree)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var delay, msgs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []float64{rng.Float64() * 800, rng.Float64() * 800}
		hi := []float64{lo[0] + 140, lo[1] + 140}
		res, err := eng.RangeQuery(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		delay += res.Stats.Delay
		msgs += res.Stats.Messages
	}
	b.ReportMetric(float64(delay)/float64(b.N), "hops/query")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
}

// BenchmarkAblationPruning regenerates extension EX5: message cost of the
// pruned descent vs the unpruned FRT flood at N = 500.
func BenchmarkAblationPruning(b *testing.B) {
	eng := buildPIRA(b, 500, 51)
	net := eng.Network()
	run := func(b *testing.B, flood bool) {
		rng := rand.New(rand.NewSource(52))
		msgs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := rng.Float64() * (benchSpace - 20)
			issuer := net.PeerIDAt(rng.Intn(net.Size()))
			var m int
			if flood {
				res, err := eng.FloodQuery(context.Background(), issuer, []float64{lo}, []float64{lo + 20})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Stats.Messages
			} else {
				res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + 20})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Stats.Messages
			}
			msgs += m
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("flood", func(b *testing.B) { run(b, true) })
}

// BenchmarkLookup measures FISSIONE exact-match routing (degenerate PIRA).
func BenchmarkLookup(b *testing.B) {
	net, err := fissione.BuildRandom(benchK, benchFig5Net, 61)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oid := kautz.Random(rng, benchK)
		res, err := eng.Lookup(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), oid)
		if err != nil {
			b.Fatal(err)
		}
		hops += res.Stats.Delay
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/lookup")
}

// BenchmarkJoin measures FISSIONE's join protocol including routing-table
// maintenance.
func BenchmarkJoin(b *testing.B) {
	net, err := fissione.BuildRandom(benchK, 1000, 71)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Join(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIQuery exercises the public facade end to end.
func BenchmarkPublicAPIQuery(b *testing.B) {
	net, err := armada.NewNetwork(1000, armada.WithSeed(91))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := net.Publish(fmt.Sprintf("o%d", i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(92))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 900
		if _, err := net.Do(context.Background(), armada.NewRange([]armada.Range{{Low: lo, High: lo + 50}})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentPoint measures one full experiment data point (the
// harness's unit of work) at reduced query count.
func BenchmarkExperimentPoint(b *testing.B) {
	cfg := experiments.Config{Queries: 50, Seed: 101, K: benchK, FixedNet: 500,
		RangeSizes: []int{50}, NetSizes: []int{500}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RangeSizeFigures(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation profiles -------------------------------------------------
//
// The benchmarks below pin the per-operation allocation behaviour of the
// hot data-plane paths (run with `go test -bench=Alloc -benchmem`), plus
// the two network bring-up paths the 100k-peer runs depend on: batch
// construction and warm-start snapshot loading.

// buildAllocNet builds a public-API network preloaded with the given
// number of single-attribute objects.
func buildAllocNet(b testing.TB, peers, preload int, opts ...armada.Option) *armada.Network {
	b.Helper()
	net, err := armada.NewNetwork(peers, append(opts, armada.WithSeed(111))...)
	if err != nil {
		b.Fatal(err)
	}
	pubs := make([]armada.Publication, preload)
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{float64(i % 1000)}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkAllocPublish measures one publish: naming hash, owner descent,
// replica fan-out, store insert.
func BenchmarkAllocPublish(b *testing.B) {
	net := buildAllocNet(b, 1000, 0)
	defer net.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Publish(fmt.Sprintf("p%d", i), float64(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// A publish copies its record into a shared chunk and its values into the
// store's column, and an unpublish only cuts: on a warm store the pair
// allocates one chunk per ~100 publishes and nothing else.
func TestPublishUnpublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the code's own under the race detector")
	}
	net := buildAllocNet(t, 1000, 2000)
	defer net.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := net.Publish("churned", 417); err != nil {
			t.Fatal(err)
		}
		if err := net.Unpublish("churned", 417); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.05 {
		t.Fatalf("a publish and an unpublish allocate %.3f times, ceiling is 0.05", allocs)
	}
}

// BenchmarkAllocLookup measures one exact-match query end to end.
func BenchmarkAllocLookup(b *testing.B) { benchLookup(b) }

// BenchmarkAllocLookupDiagnosed is the same lookups on the same network with
// the query diagnostics on (armada-load -slow-out's and -trace-out's log):
// its ratio to AllocLookup is what leaving them on costs a query.
func BenchmarkAllocLookupDiagnosed(b *testing.B) {
	benchLookup(b, armada.WithDiagnostics(armada.DiagnosticsConfig{SlowLogCapacity: 256}))
}

// benchLookup is BenchmarkAllocLookup's loop, on a network built with opts.
func benchLookup(b *testing.B, opts ...armada.Option) {
	net := buildAllocNet(b, 1000, 2000, opts...)
	defer net.Close()
	rng := rand.New(rand.NewSource(112))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := armada.NewLookup(fmt.Sprintf("o%d", rng.Intn(2000)))
		if _, err := net.Do(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// buildCachedNet is buildAllocNet with a route cache that one whole-space
// descent has taught every owner, so every later lookup and range is seeded.
func buildCachedNet(b testing.TB, peers, preload int) *armada.Network {
	b.Helper()
	net := buildAllocNet(b, peers, preload, armada.WithShortcutTable(peers))
	if _, err := net.Do(context.Background(), armada.NewRange([]armada.Range{{Low: 0, High: benchSpace}})); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkAllocLookupCached is BenchmarkAllocLookup served by the route
// cache: one owner probe, one cache read, one direct message.
func BenchmarkAllocLookupCached(b *testing.B) {
	net := buildCachedNet(b, 1000, 2000)
	defer net.Close()
	rng := rand.New(rand.NewSource(112))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := armada.NewLookup(fmt.Sprintf("o%d", rng.Intn(2000)))
		if res, err := net.Do(ctx, q); err != nil || res.Stats.ShortcutHits != 1 {
			b.Fatalf("lookup not served by the cache: %+v, %v", res, err)
		}
	}
}

// The parallel lookups: value lookups at 10k peers from GOMAXPROCS
// goroutines at once (run at -cpu 1,2), the shape of a warm-route query — on
// a network all of them share, what each query writes that the others read
// decides how far a second core goes. ParallelLookup names its issuer;
// NoIssuer draws one from the network's seeded sequence; Cached is served by
// the route cache in one hop; SharedCtx passes every goroutine one
// cancellable context, as armada-load's executors share one run context.
func BenchmarkParallelLookup(b *testing.B) {
	benchParallel(b, buildAllocNet(b, 10000, 10000), context.Background(), true)
}

func BenchmarkParallelLookupNoIssuer(b *testing.B) {
	benchParallel(b, buildAllocNet(b, 10000, 10000), context.Background(), false)
}

func BenchmarkParallelLookupCached(b *testing.B) {
	benchParallel(b, buildCachedNet(b, 10000, 10000), context.Background(), false)
}

func BenchmarkParallelLookupSharedCtx(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchParallel(b, buildAllocNet(b, 10000, 10000), ctx, false)
}

// benchParallel runs value lookups of the values buildAllocNet published from
// b.RunParallel's goroutines, each with its own key sequence and, when
// issuer is set, its own fixed issuer.
func benchParallel(b *testing.B, net *armada.Network, ctx context.Context, issuer bool) {
	defer net.Close()
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seeds.Add(1)))
		var opts []armada.QueryOption
		if issuer {
			opts = append(opts, armada.WithIssuer(net.RandomPeer()))
		}
		v := []float64{0}
		for pb.Next() {
			v[0] = float64(rng.Intn(1000))
			if res, err := net.Do(ctx, armada.NewValueLookup(v, opts...)); err != nil || len(res.Objects) == 0 {
				b.Errorf("lookup of %v: %v objects, %v", v, res, err)
				return
			}
		}
	})
}

// A value lookup allocates what its caller receives — the objects, their
// values, the Result — and nothing for its ObjectID, which it routes by rank,
// or for the cache: a cache-served lookup no more than the descent it
// replaces, and both within the ceiling of 3.
func TestCachedLookupAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	ctx := context.Background()
	perLookup := func(net *armada.Network, hits int) float64 {
		defer net.Close()
		q := armada.NewValueLookup([]float64{417}, armada.WithIssuer(net.PeerIDs()[3]))
		return testing.AllocsPerRun(200, func() {
			if res, err := net.Do(ctx, q); err != nil || res.Stats.ShortcutHits != hits || len(res.Objects) == 0 {
				t.Fatalf("lookup: %+v, %v; want ShortcutHits = %d", res, err, hits)
			}
		})
	}
	descent, cached := perLookup(buildAllocNet(t, 1000, 2000), 0), perLookup(buildCachedNet(t, 1000, 2000), 1)
	if cached > descent || descent > 3 {
		t.Fatalf("a cache-served lookup allocates %.1f times, a descent %.1f; ceiling is 3", cached, descent)
	}
}

// Watching a query allocates nothing: the caller's trace sink and the
// diagnostics collector are one tracer chain built in run's frame, each link
// one interface word, so once the slow log holds its slowest queries a
// traced, a diagnosed and a traced-and-diagnosed lookup or range allocate
// exactly as often as the unobserved one.
func TestObservedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	ctx := context.Background()
	plain := buildAllocNet(t, 1000, 2000)
	defer plain.Close()
	diagnosed := buildAllocNet(t, 1000, 2000, armada.WithDiagnostics(armada.DiagnosticsConfig{SlowLogCapacity: 16}))
	defer diagnosed.Close()
	hops := 0
	trace := armada.WithTrace(func(armada.Hop) { hops++ })
	perQuery := func(net *armada.Network, q armada.Query) float64 {
		for range 1000 { // fills the slow log with the slowest of many
			if _, err := net.Do(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := net.Do(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, kind := range []string{"lookup", "range"} {
		query := func(net *armada.Network, opts ...armada.QueryOption) armada.Query {
			opts = append(opts, armada.WithIssuer(net.PeerIDs()[3]))
			if kind == "lookup" {
				return armada.NewValueLookup([]float64{417}, opts...)
			}
			return armada.NewRange([]armada.Range{{Low: 400, High: 420}}, opts...)
		}
		want := perQuery(plain, query(plain))
		for _, c := range []struct {
			name string
			net  *armada.Network
			opts []armada.QueryOption
		}{
			{"traced", plain, []armada.QueryOption{trace}},
			{"diagnosed", diagnosed, nil},
			{"traced and diagnosed", diagnosed, []armada.QueryOption{trace}},
		} {
			if got := perQuery(c.net, query(c.net, c.opts...)); got != want {
				t.Errorf("a %s %s allocates %.0f times, an unobserved one %.0f", c.name, kind, got, want)
			}
		}
	}
	if hops == 0 {
		t.Fatal("the trace sink saw no hop")
	}
}

// A range allocates its result — objects, values, destinations (the
// engine's, which the facade hands out as they are) and the Result — plus its
// box. Its corners are ranks, not ObjectIDs, and nothing scales with hops or
// objects.
func TestRangeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	net := buildAllocNet(t, 1000, 2000)
	defer net.Close()
	ctx := context.Background()
	q := armada.NewRange([]armada.Range{{Low: 400, High: 420}}, armada.WithIssuer(net.PeerIDs()[3]))
	allocs := testing.AllocsPerRun(200, func() {
		if res, err := net.Do(ctx, q); err != nil || len(res.Objects) < 20 || len(res.Destinations) < 2 {
			t.Fatalf("range: %+v, %v; want ≥ 20 objects from ≥ 2 destinations", res, err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a range query allocates %.1f times, ceiling is 5", allocs)
	}
}

// BenchmarkAllocRange measures one materializing range query end to end.
func BenchmarkAllocRange(b *testing.B) { benchRangeAlloc(b) }

// benchRangeAlloc is BenchmarkAllocRange's loop, on a network built with opts.
func benchRangeAlloc(b *testing.B, opts ...armada.Option) {
	net := buildAllocNet(b, 1000, 2000, opts...)
	defer net.Close()
	rng := rand.New(rand.NewSource(113))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 950
		q := armada.NewRange([]armada.Range{{Low: lo, High: lo + 20}})
		if _, err := net.Do(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRangeDiagnosed is the same ranges on the same network with
// the query diagnostics on: its ratio to AllocRange is what leaving them on
// costs a range.
func BenchmarkAllocRangeDiagnosed(b *testing.B) {
	benchRangeAlloc(b, armada.WithDiagnostics(armada.DiagnosticsConfig{SlowLogCapacity: 256}))
}

// BenchmarkAllocRangePaged measures one whole paginated walk through a
// query session (page 1 descends and captures the frontier; later pages
// seed directly): ~100 objects over 4 pages of 32 in about 170 allocations
// and 23 KB — a fixed cost per page (bounds, region, result headers,
// destination lists), nothing per object or per destination.
func BenchmarkAllocRangePaged(b *testing.B) {
	net := buildAllocNet(b, 1000, 2000)
	defer net.Close()
	rng := rand.New(rand.NewSource(114))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 900
		walk(b, net, armada.NewRange([]armada.Range{{Low: lo, High: lo + 50}}, armada.WithLimit(32)))
	}
}

// walk pages one session to its end and returns the objects it saw.
func walk(b *testing.B, net *armada.Network, q armada.Query) (objects int) {
	sess, err := net.OpenSession(q)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for sess.More() {
		res, err := sess.Next(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		objects += len(res.Objects)
	}
	return objects
}

// A positional page allocates what its caller keeps and nothing else — the
// Result, its objects, their values, and the destination list: the geometry
// is the walk's, the message goes through the pooled queue, and no owner ahead
// of the cursor is listed. So every page after the first costs the same
// handful of allocations, wherever in the walk it is.
func TestSessionPageAllocsFlat(t *testing.T) {
	net, err := armada.NewNetwork(1000, armada.WithSeed(111))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	pubs := make([]armada.Publication, 4000)
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{float64(i) * 0.25}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Per page, the least of several walks: a page that found the engine's
	// state pool empty — under the race detector sync.Pool drops a share of
	// what it is given — rebuilds its buffers, which is not the page's cost.
	var perPage []uint64
	for walk := 0; walk < 6; walk++ {
		sess, err := net.OpenSession(armada.NewRange([]armada.Range{{Low: 100, High: 600}}, armada.WithLimit(64)))
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		for page := 0; sess.More(); page++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			res, err := sess.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			switch n := ms.Mallocs - before; {
			case res.NextOffsetID == "": // the short final page is not comparable
			case walk == 0:
				perPage = append(perPage, n)
			default:
				perPage[page] = min(perPage[page], n)
			}
		}
		sess.Close()
	}
	if len(perPage) < 20 {
		t.Fatalf("walk had only %d full pages", len(perPage))
	}
	// Page 1 descends; the positional pages are flat: 4 each, with one of
	// slack for an allocation of the runtime's own landing in the window. Under
	// the race detector a page finds the state pool empty too often for the
	// least of any few walks to be the page's own count.
	if most := slices.Max(perPage[1:]); most > 5 && !raceEnabled {
		t.Fatalf("allocations per page: %v, want at most 5 on every page after the first", perPage)
	}
	t.Logf("allocations per page: %v", perPage)
}

// The benchmarks below run at the shape of the repo benchmark's
// scan-wide workload — 500 peers, 100k single-attribute objects, a range
// over 6% of the space (~6,000 objects on ~30 peers), pages of 256, top 10
// — where the store scan and the result copy are the work and the descent
// is noise. They report bytes and time per object returned by the
// materialising range, so they read against each other: a walk and a
// drained stream return the same objects as the range, a top-k returns ten
// of them, a broken stream one. width is the range's, in the attribute's
// units of 0..1000.
func benchWide(b *testing.B, width float64, run func(net *armada.Network, ranges []armada.Range) int) {
	net, rng := wideNet(b)
	defer net.Close()
	b.ReportAllocs()
	b.ResetTimer()
	objects := 0
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * (1000 - width)
		objects += run(net, []armada.Range{{Low: lo, High: lo + width}})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(objects, 1)), "ns/object")
}

// wideNet builds the scan-wide network and returns it with the source that
// drew its values, for the queries to continue.
func wideNet(b *testing.B) (*armada.Network, *rand.Rand) {
	net, err := armada.NewNetwork(500, armada.WithSeed(115))
	if err != nil {
		b.Fatal(err)
	}
	pubs := make([]armada.Publication, 100000)
	rng := rand.New(rand.NewSource(116))
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{rng.Float64() * 1000}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		b.Fatal(err)
	}
	return net, rng
}

// BenchmarkGCMarkWide is one forced collection with the scan-wide network
// live: ns/op is what the collector pays to mark its topology and its 100k
// stored objects.
func BenchmarkGCMarkWide(b *testing.B) {
	net, _ := wideNet(b)
	defer net.Close()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
}

// BenchmarkStoreHeapWide reports the live heap (after a forced collection)
// that building the scan-wide network adds: its topology and, nearly all of
// it, the stores of its 100k objects — slots, record chunks, value columns
// and their spare room — in MB and in bytes a stored object.
func BenchmarkStoreHeapWide(b *testing.B) {
	const objects = 100000 // wideNet's
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		net, _ := wideNet(b)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		added := float64(int64(ms.HeapAlloc) - before)
		b.ReportMetric(added/1e6, "heap-MB")
		b.ReportMetric(added/objects, "B/object")
		net.Close()
	}
}

// BenchmarkChurnRetention reports the live heap (MB, after a forced
// collection) a churned network keeps: at the churn-write shape — 1k peers,
// 2 replicas, 2 attributes, 20k preloaded objects — 2M publishes and
// unpublishes keep 2,000 objects of their own live, each publish evicting
// one of them at random. Records share chunks, and a chunk stays whole while
// any of its records is stored, so this is what the chunk size costs.
func BenchmarkChurnRetention(b *testing.B) {
	const live, ops = 2000, 2_000_000
	for i := 0; i < b.N; i++ {
		net, err := armada.NewNetwork(1000, armada.WithSeed(117), armada.WithReplication(2),
			armada.WithAttributes(armada.AttributeSpace{Low: 0, High: 1000}, armada.AttributeSpace{Low: 0, High: 100}))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(118))
		point := func() []float64 { return []float64{rng.Float64() * 1000, rng.Float64() * 100} }
		pubs := make([]armada.Publication, 20000)
		for j := range pubs {
			pubs[j] = armada.Publication{Name: fmt.Sprintf("o%d", j), Values: point()}
		}
		if err := net.PublishBatch(pubs); err != nil {
			b.Fatal(err)
		}
		pubs = pubs[:0]
		for j := 0; j < ops/2; j++ {
			p := armada.Publication{Name: fmt.Sprintf("c%d", j), Values: point()}
			if err := net.Publish(p.Name, p.Values...); err != nil {
				b.Fatal(err)
			}
			if len(pubs) < live {
				pubs = append(pubs, p)
				continue
			}
			at := rng.Intn(live)
			if err := net.Unpublish(pubs[at].Name, pubs[at].Values...); err != nil {
				b.Fatal(err)
			}
			pubs[at] = p
		}
		pubs = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/1e6, "heap-MB")
		net.Close()
	}
}

// BenchmarkRangeMIRA is one range query at the shape of the repo benchmark's
// churn-write workload — 1k peers, 2 replicas, 2 attributes, 20k objects —
// without its churn or writes: MIRA's descent, box pruning included, and the
// materialised result. It cycles through 512 fixed boxes, each spanning
// 0.5–5% of each attribute, issued from peers spread over the network.
func BenchmarkRangeMIRA(b *testing.B) {
	benchMIRA(b, 20000, func(rng *rand.Rand) float64 { return 0.005 + 0.045*rng.Float64() })
}

// BenchmarkRangeMIRAWide is MIRA at the width where admission is the work:
// the same network holding 50k objects, boxes spanning 20% of each
// attribute — ~2,000 objects from ~100 owners a query, each object tested
// against the box once; ns/object is per object returned.
func BenchmarkRangeMIRAWide(b *testing.B) {
	benchMIRA(b, 50000, func(*rand.Rand) float64 { return 0.2 })
}

// benchMIRA builds the churn-write-shaped network with the given number of
// objects and cycles through 512 fixed boxes, each side the fraction of its
// attribute that width draws, issued from peers spread over the network.
func benchMIRA(b *testing.B, objects int, width func(*rand.Rand) float64) {
	spaces := []armada.AttributeSpace{{Low: 0, High: 1000}, {Low: 0, High: 100}}
	net, err := armada.NewNetwork(1000, armada.WithSeed(119), armada.WithReplication(2), armada.WithAttributes(spaces...))
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(120))
	pubs := make([]armada.Publication, objects)
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{rng.Float64() * 1000, rng.Float64() * 100}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		b.Fatal(err)
	}
	peers := net.PeerIDs()
	queries := make([]armada.Query, 512)
	for i := range queries {
		box := make([]armada.Range, len(spaces))
		for a, s := range spaces {
			w := (s.High - s.Low) * width(rng)
			lo := s.Low + rng.Float64()*(s.High-s.Low-w)
			box[a] = armada.Range{Low: lo, High: lo + w}
		}
		queries[i] = armada.NewRange(box, armada.WithIssuer(peers[i*7919%len(peers)]))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		res, err := net.Do(ctx, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		found += len(res.Objects)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(found, 1)), "ns/object")
}

func benchRange(b *testing.B, width float64) {
	benchWide(b, width, func(net *armada.Network, ranges []armada.Range) int {
		res, err := net.Do(context.Background(), armada.NewRange(ranges))
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Objects)
	})
}

// benchStream drains the range as a stream: the same objects as benchRange,
// walked in Stream's own pages.
func benchStream(b *testing.B, width float64) {
	benchWide(b, width, func(net *armada.Network, ranges []armada.Range) (objects int) {
		for _, err := range net.Stream(context.Background(), armada.NewRange(ranges)) {
			if err != nil {
				b.Fatal(err)
			}
			objects++
		}
		return objects
	})
}

func BenchmarkRangeWide(b *testing.B)  { benchRange(b, 60) }
func BenchmarkStreamWide(b *testing.B) { benchStream(b, 60) }

// The same pair over half the space — ~50,000 objects on ~250 owners, 49
// stream pages — where a page that addressed every owner still ahead of its
// cursor cost the drained stream 1.5× the one-shot range.
func BenchmarkRangeManyOwners(b *testing.B)  { benchRange(b, 500) }
func BenchmarkStreamManyOwners(b *testing.B) { benchStream(b, 500) }

func BenchmarkWalkWide(b *testing.B) {
	benchWide(b, 60, func(net *armada.Network, ranges []armada.Range) int {
		return walk(b, net, armada.NewRange(ranges, armada.WithLimit(256)))
	})
}

// BenchmarkStreamBreakWide leaves the stream at its first object: what a
// consumer that stops early pays is one page, so its bytes/op read against a
// Do limited to that page, not against the range; ns/object is per object
// consumed — one.
func BenchmarkStreamBreakWide(b *testing.B) {
	benchWide(b, 60, func(net *armada.Network, ranges []armada.Range) (objects int) {
		for _, err := range net.Stream(context.Background(), armada.NewRange(ranges)) {
			if err != nil {
				b.Fatal(err)
			}
			objects++
			break
		}
		return objects
	})
}

// BenchmarkTopKWide selects ten objects out of the range's ~6,000; its
// ns/object is per object returned, not per object scanned.
func BenchmarkTopKWide(b *testing.B) {
	benchWide(b, 60, func(net *armada.Network, ranges []armada.Range) int {
		res, err := net.Do(context.Background(), armada.NewRange(ranges, armada.WithTopK(10)))
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Objects)
	})
}

// BenchmarkBatchBuild10k measures the deterministic batch construction of
// a 10k-peer overlay — the cold-start path (bytes/op here is the
// transient build cost, not the resident footprint).
func BenchmarkBatchBuild10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fissione.BuildRandom(benchK, 10_000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad10k measures restoring the same 10k-peer overlay
// from a warm-start snapshot — the path that must beat the cold build by
// at least 5x.
func BenchmarkSnapshotLoad10k(b *testing.B) {
	net, err := fissione.BuildRandom(benchK, 10_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fissione.LoadSnapshot(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
