package armada

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// publishSpread stores n objects evenly across the attribute space so
// range queries have something to deliver.
func publishSpread(t *testing.T, net *Network, n int) {
	t.Helper()
	pubs := make([]Publication, n)
	for i := range pubs {
		pubs[i] = Publication{
			Name:   "obs-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26%10)) + string(rune('0'+i%10)),
			Values: []float64{float64(i%1000) + 0.5},
		}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsPopulated(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(5), WithShortcutTable(64))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 300)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		lo := float64(i * 50)
		if _, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 100}})); err != nil {
			t.Fatal(err)
		}
	}
	mv := net.MetricValues()
	for _, name := range []string{
		"engine_descents_total", "engine_messages_total", "engine_deliveries_total",
		"engine_scheduled_ops_total", "query_delay_vs_bound_count",
	} {
		if mv[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, mv[name])
		}
	}
	if v := mv["delay_bound_violations"]; v != 0 {
		t.Errorf("delay_bound_violations = %d, want 0", v)
	}
	if _, ok := mv["peers"]; ok {
		t.Error("CounterValues must exclude the peers gauge (interval deltas)")
	}
	// The same repeated query must hit the route cache and show there.
	for i := 0; i < 3; i++ {
		if _, err := net.Do(ctx, NewRange([]Range{{Low: 100, High: 200}})); err != nil {
			t.Fatal(err)
		}
	}
	if hits := net.MetricValues()["shortcut_hits_total"]; hits == 0 {
		t.Error("shortcut_hits_total = 0 after repeated identical ranges")
	}

	var sb strings.Builder
	if err := net.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE engine_messages_total counter",
		"# TYPE peers gauge",
		"# TYPE engine_hop_delay histogram",
		"engine_hop_delay_bucket{le=\"+Inf\"}",
		"peers 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestNoRecorderByDefault(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.WriteFlightTrace(&strings.Builder{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteFlightTrace error = %v, want ErrNoRecorder", err)
	}
}

// TestFlightRecorderShim: WithFlightRecorder attaches the diagnostics at the
// default log capacity, and a WithDiagnostics config wins in either order.
func TestFlightRecorderShim(t *testing.T) {
	for _, c := range []struct {
		opts []Option
		want int
	}{
		{[]Option{WithFlightRecorder(4096)}, 256},
		{[]Option{WithFlightRecorder(4096), WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: 3})}, 3},
		{[]Option{WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: 3}), WithFlightRecorder(4096)}, 3},
	} {
		net, err := NewNetwork(30, append(c.opts, WithSeed(4))...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 300 {
			if _, err := net.Do(context.Background(), NewValueLookup([]float64{float64(i)})); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(net.SlowQueries()); got != c.want {
			t.Errorf("log holds %d records, want %d", got, c.want)
		}
	}
	if _, err := NewNetwork(30, WithFlightRecorder(0)); err == nil {
		t.Error("WithFlightRecorder(0) accepted")
	}
}

// chromeTrace is the part of a Chrome trace-event dump the tests read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		ID   string         `json:"id"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestFlightRecorderLifecycle drives one full query lifecycle — descent,
// delivery, page cut — through the diagnostics and round-trips its record
// through the Chrome trace-event exporter.
func TestFlightRecorderLifecycle(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(7), WithDiagnostics(DiagnosticsConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 400)
	ctx := context.Background()
	// A range narrow enough for every hop to fit the record, wide enough
	// for a page cut.
	res, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 150}}, WithLimit(50)))
	if err != nil {
		t.Fatal(err)
	}
	if res.NextOffsetID == "" {
		t.Fatal("want a paged result (non-empty NextOffsetID) to exercise the page cut")
	}
	recs := net.SlowQueries()
	if len(recs) != 1 {
		t.Fatalf("log holds %d records, want the one query", len(recs))
	}
	rec := recs[0]
	if rec.Cursor != res.NextOffsetID {
		t.Errorf("record cursor %q, result cursor %q", rec.Cursor, res.NextOffsetID)
	}
	byKind := map[string]int{}
	for _, h := range rec.Hops {
		byKind[h.Kind]++
	}
	if byKind["forward"] == 0 || byKind["deliver"] == 0 || rec.HopsDropped != 0 {
		t.Errorf("record hops by kind %v, %d dropped; want forwards and deliveries, none dropped", byKind, rec.HopsDropped)
	}

	var sb strings.Builder
	if err := net.WriteFlightTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var dump chromeTrace
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if want := len(rec.Hops) + 3; len(dump.TraceEvents) != want {
		t.Fatalf("trace exports %d events, want %d (span, %d hops, page cut)", len(dump.TraceEvents), want, len(rec.Hops))
	}
	wantID := strconv.FormatUint(rec.QID, 10)
	var begins, ends, hops, cuts int
	for _, te := range dump.TraceEvents {
		switch {
		case te.Ph == "b" && te.Name == "query":
			begins++
			if te.ID != wantID {
				t.Errorf("span begin id = %q, want %q", te.ID, wantID)
			}
		case te.Ph == "e" && te.Name == "query":
			ends++
			if te.ID != wantID || te.Args["messages"] != float64(res.Stats.Messages) || te.Args["delay"] != float64(res.Stats.Delay) {
				t.Errorf("span end id %q args %v, want id %q, %d messages, delay %d", te.ID, te.Args, wantID, res.Stats.Messages, res.Stats.Delay)
			}
		case te.Cat == "hop":
			hops++
			if te.Args["from"] == nil || te.Args["to"] == nil {
				t.Errorf("hop %q lacks from or to: %v", te.Name, te.Args)
			}
		case te.Name == "page-cut":
			cuts++
			if te.Args["cursor"] != res.NextOffsetID {
				t.Errorf("page cut at %v, want %q", te.Args["cursor"], res.NextOffsetID)
			}
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("query span begin/end = %d/%d, want 1/1", begins, ends)
	}
	if hops == 0 || cuts != 1 {
		t.Errorf("hops = %d (want > 0), page cuts = %d (want 1)", hops, cuts)
	}
}

// TestRecordCountsTheQueryCost: on an unreplicated network a logged query's
// hops are its cost — forwards plus seeded sends are Stats.Messages,
// deliveries plus redirects are Stats.Deliveries, each scan one run — for a
// descended lookup, a descended range and a range the route cache seeded.
func TestRecordCountsTheQueryCost(t *testing.T) {
	net := buildQueryNet(t, 300, 900, WithShortcutTable(300), WithDiagnostics(DiagnosticsConfig{}))
	ctx := context.Background()
	narrow := NewRange([]Range{{Low: 400, High: 430}})
	for _, c := range []struct {
		name   string
		q      Query
		seeded bool
	}{
		{"lookup", NewLookup(objName(17)), false},
		{"range", narrow, false},
		{"seeded range", narrow, true},
	} {
		res, err := net.Do(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.DescentsSaved == 1; got != c.seeded {
			t.Fatalf("%s: seeded %t, want %t", c.name, got, c.seeded)
		}
		recs := net.SlowQueries()
		rec := recs[len(recs)-1]
		byKind := map[string]int{}
		for _, h := range rec.Hops {
			byKind[h.Kind]++
		}
		if rec.HopsDropped != 0 {
			t.Errorf("%s: %d hops dropped", c.name, rec.HopsDropped)
		}
		if got := byKind["forward"] + byKind["seed"]; got != res.Stats.Messages {
			t.Errorf("%s: %d forward + seed hops, Stats.Messages %d", c.name, got, res.Stats.Messages)
		}
		if got := byKind["deliver"] + byKind["redirect"]; got != res.Stats.Deliveries {
			t.Errorf("%s: %d deliver + redirect hops, Stats.Deliveries %d", c.name, got, res.Stats.Deliveries)
		}
		if byKind["scan"] == 0 || byKind["scan"] > res.Stats.Deliveries {
			t.Errorf("%s: %d scans for %d deliveries", c.name, byKind["scan"], res.Stats.Deliveries)
		}
	}
}

// TestRepairsCounted: replica repair after crashes shows in its counters —
// regions repaired, and at least one object copied for each.
func TestRepairsCounted(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(9), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 200)
	// One crash may hit a peer owning nothing; a handful cannot all miss a
	// 200-object store.
	for i := 0; i < 8; i++ {
		if err := net.Fail(net.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	mv := net.MetricValues()
	repairs, copied := mv["fissione_repairs_total"], mv["fissione_re_replications_total"]
	if repairs == 0 {
		t.Error("fissione_repairs_total = 0 after crashes on a replicated network")
	}
	if copied < repairs {
		t.Errorf("fissione_re_replications_total = %d below %d repairs: a repair copied nothing", copied, repairs)
	}
}

// TestDelayBoundConformance asserts the paper's theorem end to end: no
// query ever reaches 2·log₂N hops, at several sizes.
func TestDelayBoundConformance(t *testing.T) {
	ctx := context.Background()
	for _, peers := range []int{50, 200} {
		net, err := NewNetwork(peers, WithSeed(int64(peers)))
		if err != nil {
			t.Fatal(err)
		}
		publishSpread(t, net, 300)
		for i := 0; i < 30; i++ {
			lo := float64((i * 37) % 900)
			if _, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 80}})); err != nil {
				t.Fatal(err)
			}
		}
		mv := net.MetricValues()
		if mv["query_delay_vs_bound_count"] == 0 {
			t.Fatalf("peers=%d: conformance histogram empty", peers)
		}
		if v := mv["delay_bound_violations"]; v != 0 {
			t.Errorf("peers=%d: delay_bound_violations = %d, want 0", peers, v)
		}
	}
}

// TestParallelQueriesCountExactly: G goroutines run Q lookups each on a
// cached network, and every per-query instrument — striped per P — counts
// each query exactly once: the engine's descended plus seeded queries, its
// hop-delay histogram, the delay-bound histogram, and the route cache's hits
// plus misses.
func TestParallelQueriesCountExactly(t *testing.T) {
	const g, q = 8, 300
	net := buildQueryNet(t, 400, 800, WithShortcutTable(400))
	ctx := context.Background()
	if _, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 1000}})); err != nil {
		t.Fatal(err)
	}
	before := net.MetricValues()
	var wg sync.WaitGroup
	for w := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range q {
				if _, err := net.Do(ctx, NewValueLookup([]float64{float64((w*q + i) % 1000)})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := net.MetricValues()
	delta := func(names ...string) (n int64) {
		for _, name := range names {
			n += after[name] - before[name]
		}
		return n
	}
	for _, names := range [][]string{
		{"engine_descents_total", "engine_seeded_queries_total"},
		{"engine_hop_delay_count"},
		{"query_delay_vs_bound_count"},
		{"shortcut_hits_total", "shortcut_misses_total"},
	} {
		if got := delta(names...); got != g*q {
			t.Errorf("%v: %d, want %d", names, got, g*q)
		}
	}
	if delta("shortcut_hits_total") == 0 {
		t.Error("no lookup was served by the cache")
	}
}
