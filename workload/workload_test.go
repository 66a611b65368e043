package workload

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"armada"
	"armada/internal/stats"
)

// small returns a quick scenario for tests, at the default arrival rate.
func small() Scenario {
	return Scenario{
		Name:    "test",
		Peers:   80,
		Seed:    11,
		Preload: 200,
		Ops:     300,
		Mix:     Mix{Publish: 10, Unpublish: 8, Lookup: 10, Range: 50, TopK: 5},
		Arrival: Arrival{Workers: 4},
	}
}

func TestPresetsValid(t *testing.T) {
	ps := Presets()
	if len(ps) != 11 {
		t.Fatalf("presets = %d, want 11", len(ps))
	}
	for _, p := range ps {
		sc := p.withDefaults()
		if err := sc.validate(); err != nil {
			t.Errorf("preset %q invalid: %v", p.Name, err)
		}
		if sc.Ops <= 0 && sc.Duration <= 0 {
			t.Errorf("preset %q has no stop condition", p.Name)
		}
	}
	if _, ok := Preset("churn-heavy"); !ok {
		t.Error("Preset(churn-heavy) not found")
	}
	// Returned presets are detached copies: mutating one must not corrupt
	// the package-level table.
	first, _ := Preset("mixed")
	first.Attrs[0].High = -1
	second, _ := Preset("mixed")
	if second.Attrs[0].High == -1 {
		t.Error("Preset returns aliased Attrs; mutation leaked into the preset table")
	}
	if _, ok := Preset("no-such"); ok {
		t.Error("Preset(no-such) found")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Peers: 2, Ops: 10},
		{Mix: Mix{Range: -1}, Ops: 10},
		{Ops: 0, Duration: 0},
		{Keys: KeyDist{Kind: KeyZipf, ZipfS: 0.5}, Ops: 10},
		{RangeSize: SizeDist{MinFrac: 0.5, MaxFrac: 0.1}, Ops: 10},
		{Churn: Churn{JoinPerSec: -1}, Ops: 10},
		{Arrival: Arrival{RatePerSec: -1}, Ops: 10},
		{Arrival: Arrival{RatePerSec: 1e-300}, Ops: 10}, // its mean gap overflowed to a negative Duration
		{Arrival: Arrival{RatePerSec: 1.0 / 7200}, Ops: 10},
	}
	for i, sc := range bad {
		if err := sc.withDefaults().validate(); !errors.Is(err, ErrBadScenario) {
			t.Errorf("bad scenario %d: err = %v, want ErrBadScenario", i, err)
		}
	}
	if err := small().withDefaults().validate(); err != nil {
		t.Errorf("small scenario invalid: %v", err)
	}
}

// TestScenarioRejectsNonFinite gives every float field of a valid scenario
// NaN, +Inf and -Inf in turn: none of them means anything as a weight, rate,
// fraction, exponent, threshold or bound, so each must be refused rather than
// run as some other workload.
func TestScenarioRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		keys KeyDistKind // the distribution under which the field is read
		at   func(*Scenario) *float64
	}{
		{"mix.publish", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.Publish }},
		{"mix.unpublish", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.Unpublish }},
		{"mix.lookup", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.Lookup }},
		{"mix.range", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.Range }},
		{"mix.multi-range", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.MultiRange }},
		{"mix.top-k", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.TopK }},
		{"mix.flood", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.Flood }},
		{"mix.range-paged", KeyUniform, func(s *Scenario) *float64 { return &s.Mix.RangePaged }},
		{"keys.zipf_s", KeyZipf, func(s *Scenario) *float64 { return &s.Keys.ZipfS }},
		{"keys.hot_fraction", KeyHotspot, func(s *Scenario) *float64 { return &s.Keys.HotFraction }},
		{"keys.hot_weight", KeyHotspot, func(s *Scenario) *float64 { return &s.Keys.HotWeight }},
		{"range_size.min_frac", KeyUniform, func(s *Scenario) *float64 { return &s.RangeSize.MinFrac }},
		{"range_size.max_frac", KeyUniform, func(s *Scenario) *float64 { return &s.RangeSize.MaxFrac }},
		{"arrival.rate_per_sec", KeyUniform, func(s *Scenario) *float64 { return &s.Arrival.RatePerSec }},
		{"churn.join_per_sec", KeyUniform, func(s *Scenario) *float64 { return &s.Churn.JoinPerSec }},
		{"churn.leave_per_sec", KeyUniform, func(s *Scenario) *float64 { return &s.Churn.LeavePerSec }},
		{"churn.fail_per_sec", KeyUniform, func(s *Scenario) *float64 { return &s.Churn.FailPerSec }},
		{"split_threshold", KeyUniform, func(s *Scenario) *float64 { return &s.SplitThreshold }},
		{"attrs.low", KeyUniform, func(s *Scenario) *float64 { return &s.Attrs[0].Low }},
		{"attrs.high", KeyUniform, func(s *Scenario) *float64 { return &s.Attrs[0].High }},
	}
	for _, f := range fields {
		base := func() Scenario {
			sc := small()
			sc.Keys = KeyDist{Kind: f.keys, ZipfS: 1.2, HotFraction: 0.1, HotWeight: 0.9}
			sc.RangeSize = SizeDist{MinFrac: 0.01, MaxFrac: 0.1}
			sc.Arrival.RatePerSec = 100
			sc.Churn = Churn{JoinPerSec: 1, LeavePerSec: 1, FailPerSec: 1}
			sc.LoadControl, sc.SplitThreshold = true, 50
			sc.Attrs = []armada.AttributeSpace{{Low: 0, High: 1000}}
			return sc
		}
		if err := base().withDefaults().validate(); err != nil {
			t.Fatalf("%s: the base scenario is invalid: %v", f.name, err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sc := base()
			*f.at(&sc) = v
			if err := sc.withDefaults().validate(); !errors.Is(err, ErrBadScenario) {
				t.Errorf("%s = %v: err = %v, want ErrBadScenario", f.name, v, err)
			}
		}
	}
	// A sum of finite weights can overflow: the total must be finite too.
	sc := small()
	sc.Mix.Range, sc.Mix.Lookup = math.MaxFloat64, math.MaxFloat64
	if err := sc.withDefaults().validate(); !errors.Is(err, ErrBadScenario) {
		t.Errorf("mix totalling +Inf: err = %v, want ErrBadScenario", err)
	}
}

func TestNewRejectsAttributeMismatch(t *testing.T) {
	net, err := armada.NewNetwork(50, armada.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sc := small()
	sc.Attrs = []armada.AttributeSpace{{Low: 0, High: 1}, {Low: 0, High: 1}}
	if _, err := New(net, sc); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("attribute mismatch: err = %v, want ErrBadScenario", err)
	}
}

func TestExecute(t *testing.T) {
	rep, err := Execute(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalOps + rep.Dropped; got != 300 {
		t.Errorf("completed %d + dropped %d = %d arrivals, want 300", rep.TotalOps, rep.Dropped, got)
	}
	if rep.TotalErrors != 0 {
		t.Errorf("total errors = %d, want 0", rep.TotalErrors)
	}
	if rep.Throughput <= 0 || rep.DurationSec <= 0 {
		t.Errorf("throughput/duration = %v/%v", rep.Throughput, rep.DurationSec)
	}
	if rep.StartPeers != 80 || rep.EndPeers != 80 {
		t.Errorf("peers = %d → %d, want stable 80", rep.StartPeers, rep.EndPeers)
	}
	sum := 0
	for _, op := range rep.Ops {
		sum += op.Count
	}
	if sum != rep.TotalOps {
		t.Errorf("per-kind counts sum to %d, total %d", sum, rep.TotalOps)
	}
	rng, ok := rep.Ops["range"]
	if !ok {
		t.Fatal("no range ops recorded")
	}
	if rng.LatencyMs.P50 <= 0 || rng.LatencyMs.P99 < rng.LatencyMs.P50 {
		t.Errorf("range latency quantiles inconsistent: %+v", rng.LatencyMs)
	}
	if rng.HopDelay.Max <= 0 || rng.Messages.Mean <= 0 || rng.DestPeers.Mean <= 0 {
		t.Errorf("range hop metrics missing: %+v %+v %+v", rng.HopDelay, rng.Messages, rng.DestPeers)
	}
	if len(rep.Intervals) == 0 {
		t.Error("no interval snapshots")
	}
	last := rep.Intervals[len(rep.Intervals)-1]
	if last.Peers != 80 {
		t.Errorf("final snapshot peers = %d", last.Peers)
	}
	if rep.Memory == nil {
		t.Fatal("no memory block")
	}
	if rep.Memory.HeapAllocBytes == 0 || rep.Memory.BytesPerPeer <= 0 {
		t.Errorf("memory block not measured: %+v", rep.Memory)
	}
	if rep.Memory.BuildMs <= 0 {
		t.Errorf("Execute did not record build time: %+v", rep.Memory)
	}
}

func TestExecuteOpenLoop(t *testing.T) {
	sc := small()
	sc.Ops = 150
	sc.Arrival = Arrival{Workers: 4, RatePerSec: 20000}
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// The dispatcher generates exactly Ops arrivals; under overload some
	// are shed on the bounded queue and counted, never silently lost.
	if got := rep.TotalOps + rep.Dropped; got != 150 {
		t.Errorf("completed %d + dropped %d = %d arrivals, want 150", rep.TotalOps, rep.Dropped, got)
	}
	if rep.TotalOps == 0 {
		t.Error("open-loop run completed no ops")
	}
	// Every admitted arrival contributes a queue-wait sample.
	if rep.QueueWaitMs.Max < 0 {
		t.Errorf("negative queue wait: %+v", rep.QueueWaitMs)
	}
}

func TestExecuteOpenLoopUnderCapacity(t *testing.T) {
	// At a rate the workers can easily absorb nothing may be dropped. The
	// queue (4 × Workers) holds more than the op budget, so a scheduler
	// stall on a loaded CI box cannot overflow it and flake the assertion.
	sc := small()
	sc.Ops = 50
	sc.Arrival = Arrival{Workers: 16, RatePerSec: 200}
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps != 50 || rep.Dropped != 0 {
		t.Errorf("under-capacity run: completed %d (want 50), dropped %d (want 0)", rep.TotalOps, rep.Dropped)
	}
}

// TestLatencyIncludesQueueWait overloads one executor (200k arrivals/s)
// so arrivals queue, then holds every operation's latency to at least its
// own queue wait. The collector keeps no per-operation pairs, so it checks
// what the per-operation fact implies: with one latency and one wait per
// operation, the i-th smallest latency is at least the i-th smallest wait.
func TestLatencyIncludesQueueWait(t *testing.T) {
	sc := small()
	sc.Ops = 2000
	sc.Arrival = Arrival{Workers: 1, RatePerSec: 200_000}
	sc = sc.withDefaults()
	net, err := armada.NewNetwork(sc.Peers, sc.NetworkOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	r, err := New(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	pool := &keyPool{}
	if err := r.preload(pool); err != nil {
		t.Fatal(err)
	}
	coll := newCollector(false, nil)
	r.serve(context.Background(), pool, coll)

	var lat stats.Sample
	for k := range coll.ops {
		oc := &coll.ops[k]
		if oc.errs.Load() != 0 || oc.cancelled.Load() != 0 {
			t.Fatalf("%v: %d errors, %d cancelled; want every operation sampled", OpKind(k), oc.errs.Load(), oc.cancelled.Load())
		}
		lat.Merge(oc.lat.Snapshot())
	}
	wait := coll.queueWait.Snapshot()
	n := lat.N()
	if n != wait.N() || n+int(coll.dropped.Load()) != sc.Ops {
		t.Fatalf("%d latencies, %d queue waits, %d dropped; want one latency and one wait per admitted arrival of %d",
			n, wait.N(), coll.dropped.Load(), sc.Ops)
	}
	if wait.Percentile(50) <= 0 {
		t.Fatalf("median queue wait %v ms: the run was not overloaded", wait.Percentile(50))
	}
	// Over samples of one size, a percentile names the same rank in both.
	for i := 0; i < n; i++ {
		p := 100 * float64(i) / float64(n)
		if l, w := lat.Percentile(p), wait.Percentile(p); l < w {
			t.Fatalf("latency %.4f ms < queue wait %.4f ms at rank %d of %d: latency leaves out queue wait", l, w, i, n)
		}
	}
}

func TestExecuteDurationStop(t *testing.T) {
	sc := small()
	sc.Ops = 0
	sc.Duration = 250 * time.Millisecond
	sc.Interval = 50 * time.Millisecond
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps == 0 {
		t.Error("duration-stopped run completed no ops")
	}
	if rep.DurationSec < 0.2 {
		t.Errorf("run lasted %vs, want ≈0.25s", rep.DurationSec)
	}
	if len(rep.Intervals) < 2 {
		t.Errorf("intervals = %d, want periodic snapshots plus final", len(rep.Intervals))
	}
}

func TestExecuteCancelled(t *testing.T) {
	sc := small()
	sc.Ops = 0
	sc.Duration = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := Execute(ctx, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
}

func TestChurnRunKeepsInvariants(t *testing.T) {
	sc := small()
	sc.Name = "churn-test"
	sc.Peers = 120
	// In-process ops finish in microseconds, so run for a fixed window and
	// churn fast to guarantee events land inside it.
	sc.Ops, sc.Duration = 0, 150*time.Millisecond
	sc.Churn = Churn{JoinPerSec: 1500, LeavePerSec: 1000, FailPerSec: 500, MinPeers: 48}
	net, err := armada.NewNetwork(sc.Peers, armada.WithSeed(sc.Seed))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors != 0 {
		t.Errorf("query errors under churn = %d, want 0", rep.TotalErrors)
	}
	if rep.Churn.Errors != 0 {
		t.Errorf("churn errors = %d, want 0", rep.Churn.Errors)
	}
	if rep.Churn.Joins+rep.Churn.Leaves+rep.Churn.Fails == 0 {
		t.Error("churn process executed no events; raise rates")
	}
	if err := net.Audit(); err != nil {
		t.Errorf("audit after churn run: %v", err)
	}
	if rep.EndPeers != net.Size() {
		t.Errorf("report end peers %d != network size %d", rep.EndPeers, net.Size())
	}
}

func TestUnpublishFallbackSustainsMix(t *testing.T) {
	sc := Scenario{
		Name:    "delete-only",
		Peers:   60,
		Seed:    5,
		Preload: 20,
		Ops:     100,
		Mix:     Mix{Unpublish: 1},
		Arrival: Arrival{Workers: 2},
	}
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	un, pub := rep.Ops["unpublish"], rep.Ops["publish"]
	if un.Count == 0 || pub.Count == 0 {
		t.Fatalf("counts unpublish=%d publish=%d; fallback should record publishes", un.Count, pub.Count)
	}
	if got := un.Count + pub.Count + rep.Dropped; got != 100 {
		t.Errorf("counts sum to %d with %d dropped, want 100", got, rep.Dropped)
	}
	if rep.TotalErrors != 0 {
		t.Errorf("errors = %d, want 0", rep.TotalErrors)
	}
}

func TestReportJSONSchema(t *testing.T) {
	sc := small()
	sc.Ops = 120
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "start_peers", "end_peers", "duration_sec",
		"total_ops", "throughput_per_sec", "ops", "churn", "intervals"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	ops, ok := m["ops"].(map[string]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("ops section missing or empty: %v", m["ops"])
	}
	rngOp, ok := ops["range"].(map[string]any)
	if !ok {
		t.Fatal("ops.range missing")
	}
	for _, key := range []string{"count", "throughput_per_sec", "latency_ms", "hop_delay", "messages", "dest_peers"} {
		if _, ok := rngOp[key]; !ok {
			t.Errorf("ops.range missing %q", key)
		}
	}
	lat, ok := rngOp["latency_ms"].(map[string]any)
	if !ok {
		t.Fatal("latency_ms not an object")
	}
	for _, key := range []string{"mean", "p50", "p95", "p99", "max"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency_ms missing %q", key)
		}
	}
}

func TestKeyDistributions(t *testing.T) {
	for _, kind := range []KeyDistKind{KeyUniform, KeyZipf, KeyHotspot} {
		sc := small()
		sc.Keys = KeyDist{Kind: kind}
		sc = sc.withDefaults()
		smp := newSampler(&sc, 99)
		space := sc.Attrs[0]
		for i := 0; i < 2000; i++ {
			v := smp.value(space)
			if v < space.Low || v > space.High {
				t.Fatalf("%v draw %v outside [%v, %v]", kind, v, space.Low, space.High)
			}
		}
		for i := 0; i < 200; i++ {
			for _, r := range smp.ranges(true) {
				if r.Low > r.High {
					t.Fatalf("%v range [%v, %v] inverted", kind, r.Low, r.High)
				}
			}
		}
	}
	// Zipf must actually skew low.
	sc := small()
	sc.Keys = KeyDist{Kind: KeyZipf}
	sc = sc.withDefaults()
	smp := newSampler(&sc, 7)
	low := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		if smp.frac() < 0.1 {
			low++
		}
	}
	if float64(low)/draws < 0.5 {
		t.Errorf("zipf: only %d/%d draws in the low decile", low, draws)
	}
}
