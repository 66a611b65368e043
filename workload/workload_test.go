package workload

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
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
		{Arrival: Arrival{RatePerSec: 1e12}, Ops: 10}, // its mean gap truncated to 0 ns: the schedule stood still
		{Churn: Churn{JoinPerSec: 1e-300}, Ops: 10},   // fired thousands of joins back to back
		{Churn: Churn{LeavePerSec: 1.0 / 7200}, Ops: 10},
		{Churn: Churn{JoinPerSec: 1e12}, Ops: 10}, // its mean gap truncated to 0 ns: joins back to back under the write lock
		// Each rate under the ceiling, their sum over it: churn shares the schedule.
		{Arrival: Arrival{RatePerSec: 6e8}, Churn: Churn{JoinPerSec: 6e8}, Ops: 10},
		{SlowQueryLog: armada.MaxSlowLogCapacity + 1, Ops: 10}, // 2e9 ran the process out of memory
		{Arrival: Arrival{Workers: MaxWorkers + 1}, Ops: 10},   // 1e8 ran for minutes to serve one arrival
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
			sc.LoadControl = true
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
	if rep.TotalOps != 300 || rep.Dropped != 0 {
		t.Errorf("completed %d, dropped %d; want all 300 arrivals served", rep.TotalOps, rep.Dropped)
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
	if rng.Hops.Max <= 0 || rng.Messages.Mean <= 0 || rng.DestPeers.Mean <= 0 {
		t.Errorf("range hop metrics missing: %+v %+v %+v", rng.Hops, rng.Messages, rng.DestPeers)
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
	// Overload has no queue to overflow: a run Ops stops serves every
	// arrival, late.
	if rep.TotalOps != 150 || rep.Dropped != 0 {
		t.Errorf("completed %d, dropped %d; want all 150 arrivals served", rep.TotalOps, rep.Dropped)
	}
	if rep.QueueWaitMs.Max < 0 {
		t.Errorf("negative queue wait: %+v", rep.QueueWaitMs)
	}
}

func TestExecuteOpenLoopUnderCapacity(t *testing.T) {
	// At a rate the executors easily absorb, an idle executor waits for
	// most arrivals and samples its lateness. Not all: an exponential gap
	// can be shorter than the hand-off, and such an arrival is backlog.
	sc := small()
	sc.Ops = 50
	sc.Arrival = Arrival{Workers: 16, RatePerSec: 200}
	s := served(t, sc)
	ops := 0
	for k := range s.ops {
		ops += s.ops[k].count
	}
	if ops != 50 || s.dropped != 0 {
		t.Errorf("under-capacity run: completed %d (want 50), dropped %d (want 0)", ops, s.dropped)
	}
	if n := s.dispatchLate.N(); n < sc.Ops/2 {
		t.Errorf("%d lateness samples of %d arrivals, want at least half", n, sc.Ops)
	}
}

// served preloads sc's network and runs serve on it until its Ops
// arrivals are served, returning the merged samples.
func served(t *testing.T, sc Scenario) *samples {
	t.Helper()
	sc = sc.withDefaults()
	net, err := armada.NewNetwork(sc.Peers, sc.NetworkOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	r, err := New(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	pool := &keyPool{}
	if err := r.preload(pool); err != nil {
		t.Fatal(err)
	}
	return r.serve(context.Background(), pool)
}

// TestServeMergesEveryExecutor runs every operation kind on four executors
// and holds the merged samples to one entry per operation (per page, for a
// paged walk's page samples): each executor records alone, so a field the
// merge skips keeps only the first executor's share. Counts a clean run
// leaves at zero are held by merging one of everything into nothing.
func TestServeMergesEveryExecutor(t *testing.T) {
	sc := small()
	sc.Ops = 600
	sc.Attrs = []armada.AttributeSpace{{Low: 0, High: 1000}, {Low: 0, High: 1000}}
	sc.Mix = Mix{Publish: 1, Unpublish: 1, Lookup: 1, Range: 1, MultiRange: 1, TopK: 1, Flood: 1, RangePaged: 1}
	sc.PageLimit = 4
	sc.ShortcutTable = 64
	s := served(t, sc)

	total, saved, hits := 0, 0, 0
	for k := range s.ops {
		op, kind := &s.ops[k], OpKind(k)
		total += op.count + op.cancelled
		saved += op.descentsSaved
		hits += op.shortcutHits
		ok := op.count - op.errs
		holds := func(name string, smp *stats.Sample, n int) {
			if smp.N() != n {
				t.Errorf("%v: %s holds %d entries, want %d", kind, name, smp.N(), n)
			}
		}
		if op.count == 0 {
			t.Errorf("%v: no operation recorded", kind)
		}
		holds("lat", &op.lat, ok)
		switch kind {
		case OpPublish, OpUnpublish:
		case OpRangePaged:
			pages := int(math.Round(op.pages.Mean() * float64(op.pages.N())))
			if pages <= op.count {
				t.Errorf("%v: %d pages over %d walks, want walks of several pages", kind, pages, op.count)
			}
			holds("pages", &op.pages, ok)
			holds("msgs", &op.msgs, ok)
			holds("matches", &op.matches, ok)
			holds("hops", &op.hops, pages)
			holds("dest", &op.dest, pages)
			holds("perPage", &op.perPage, pages)
			holds("perPageMsgs", &op.perPageMsgs, pages)
		default:
			holds("hops", &op.hops, ok)
			holds("msgs", &op.msgs, ok)
			holds("dest", &op.dest, ok)
			holds("matches", &op.matches, ok)
		}
	}
	if total != sc.Ops || s.dropped != 0 || s.queueWait.N() != sc.Ops || s.dispatchLate.N() == 0 {
		t.Errorf("%d operations, %d dropped, %d queue waits, %d lateness samples; want %d, 0, %d, > 0",
			total, s.dropped, s.queueWait.N(), s.dispatchLate.N(), sc.Ops, sc.Ops)
	}
	if saved == 0 || hits == 0 {
		t.Errorf("descents saved %d, shortcut hits %d; want both > 0", saved, hits)
	}

	var one samples
	one.churn = ChurnReport{Joins: 1, Leaves: 1, Fails: 1, Skipped: 1, Errors: 1}
	one.dropped = 1
	one.queueWait.Add(1)
	one.dispatchLate.Add(1)
	for k := range one.ops {
		o := &one.ops[k]
		*o = opSamples{count: 1, errs: 1, misses: 1, cancelled: 1, descentsSaved: 1, shortcutHits: 1}
		for _, smp := range []*stats.Sample{&o.lat, &o.hops, &o.msgs, &o.dest, &o.matches, &o.pages, &o.perPage, &o.perPageMsgs} {
			smp.Add(1)
		}
	}
	var got samples
	got.merge(&one)
	if !reflect.DeepEqual(got, one) {
		t.Errorf("merging one of everything into nothing lost a field:\ngot  %+v\nwant %+v", got, one)
	}
}

// TestLatencyIncludesQueueWait overloads one executor (2M arrivals/s, a
// gap shorter than any operation; at 200k/s one executor can keep up) so
// arrivals fall due while it is busy, then holds every operation's
// latency to at least its own queue wait. The samples keep no
// per-operation pairs, so it checks what the per-operation fact implies:
// with one latency and one wait per operation, the i-th smallest latency
// is at least the i-th smallest wait.
func TestLatencyIncludesQueueWait(t *testing.T) {
	sc := small()
	sc.Ops = 2000
	sc.Arrival = Arrival{Workers: 1, RatePerSec: 2_000_000}
	s := served(t, sc)

	var lat stats.Sample
	for k := range s.ops {
		op := &s.ops[k]
		if op.errs != 0 || op.cancelled != 0 {
			t.Fatalf("%v: %d errors, %d cancelled; want every operation sampled", OpKind(k), op.errs, op.cancelled)
		}
		lat.Merge(&op.lat)
	}
	wait := &s.queueWait
	n := lat.N()
	if n != wait.N() || n != sc.Ops || s.dropped != 0 {
		t.Fatalf("%d latencies, %d queue waits, %d dropped; want one latency and one wait for each of %d arrivals, none dropped",
			n, wait.N(), s.dropped, sc.Ops)
	}
	if wait.Percentile(50) <= 0 {
		t.Fatalf("median queue wait %v ms: the run was not overloaded", wait.Percentile(50))
	}
	// Overdue arrivals are backlog, not the generator's lateness.
	if late := s.dispatchLate.N(); late >= sc.Ops/10 {
		t.Errorf("%d lateness samples of %d overloaded arrivals, want under a tenth", late, sc.Ops)
	}
	// Over samples of one size, a percentile names the same rank in both.
	for i := 0; i < n; i++ {
		p := 100 * float64(i) / float64(n)
		if l, w := lat.Percentile(p), wait.Percentile(p); l < w {
			t.Fatalf("latency %.4f ms < queue wait %.4f ms at rank %d of %d: latency leaves out queue wait", l, w, i, n)
		}
	}
}

// TestDurationStopReleasesExecutors stops runs by Duration with an
// executor holding the turn: two overloaded, whose holder finds arrivals
// due that no executor started and counts them as dropped — one at the
// ceiling rate, where drawing the ~10⁸ due arrivals one by one took seconds
// inside the run's duration — and one at one arrival an hour, whose holder
// is parked on its timer when the run ends. Each must return on time with
// every executor gone.
func TestDurationStopReleasesExecutors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arrival Arrival
		dropped bool
	}{
		{"overloaded", Arrival{Workers: 1, RatePerSec: 2_000_000}, true},
		{"ceiling", Arrival{Workers: 1, RatePerSec: 1e9}, true},
		{"parked", Arrival{Workers: 4, RatePerSec: 1.0 / 3600}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sc := small()
			sc.Ops, sc.Duration = 0, 100*time.Millisecond
			sc.Arrival = tc.arrival
			start := time.Now()
			rep, err := Execute(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > 10*time.Second || rep.DurationSec > 1 {
				t.Errorf("a 100 ms run took %v, and reports %v s", took, rep.DurationSec)
			}
			if (rep.Dropped > 0) != tc.dropped {
				t.Errorf("dropped %d, want dropped > 0 to be %v", rep.Dropped, tc.dropped)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestAwaitServesWhatFellDueByTheStop: an arrival due by the stop belongs
// to the run however late its holder gets to it (that lateness dropped
// arrivals a run had released), one due after it does not, and a holder
// parked on its timer returns when the run ends. Every arrival not yet due
// when its wait began is sampled, however the wait woke — early, or after
// the arrival (lateWake makes that happen whatever the timer's accuracy) —
// and backlog is not.
func TestAwaitServesWhatFellDueByTheStop(t *testing.T) {
	var late stats.Sample
	live := context.Background()
	if at := time.Now().Add(10 * time.Millisecond); !await(live, &late, at) || time.Now().Before(at) {
		t.Error("live run: arrival not awaited")
	}
	if late.N() != 1 {
		t.Errorf("%d lateness samples for one awaited arrival", late.N())
	}
	if at := time.Now().Add(10 * time.Millisecond); !await(lateWake{live, at}, &late, at) {
		t.Error("live run: arrival woken late not served")
	}
	if late.N() != 2 || late.Max() < 1 {
		t.Errorf("%d lateness samples, max %.3f ms, after an arrival woken over 1 ms late", late.N(), late.Max())
	}
	if !await(live, &late, time.Now().Add(-time.Millisecond)) || late.N() != 2 {
		t.Errorf("backlog not served at once, or sampled (%d samples)", late.N())
	}
	stop := time.Now().Add(-time.Millisecond)
	ended, cancel := context.WithDeadline(live, stop)
	defer cancel()
	if !await(ended, &late, stop.Add(-time.Microsecond)) || !await(ended, &late, stop) {
		t.Error("arrival due by the stop refused")
	}
	if await(ended, &late, stop.Add(time.Microsecond)) {
		t.Error("arrival due after the stop served")
	}
	start := time.Now()
	if await(ended, &late, start.Add(time.Hour)) || time.Since(start) > time.Second {
		t.Errorf("parked holder served an arrival an hour out, or returned after %v", time.Since(start))
	}
}

// lateWake is a live context whose Done returns only once a millisecond past
// at has gone by, so an await for at started before it wakes after at however
// accurate the timer is: the select evaluates Done first, and the nil channel
// it returns never fires.
type lateWake struct {
	context.Context
	at time.Time
}

func (c lateWake) Done() <-chan struct{} {
	for time.Now().Before(c.at.Add(time.Millisecond)) {
		time.Sleep(time.Millisecond)
	}
	return nil
}

func TestExecuteDurationStop(t *testing.T) {
	sc := small()
	sc.Ops = 0
	sc.Duration = 250 * time.Millisecond
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

// TestOpsStopUnderChurn: churn arrivals ride the operations' schedule but
// do not count toward Ops, so a run Ops stops under churn serves exactly
// Ops operations, drops none, and fires churn events that leave the
// network consistent.
func TestOpsStopUnderChurn(t *testing.T) {
	sc := small()
	sc.Ops = 2000
	sc.Churn = Churn{JoinPerSec: 750, LeavePerSec: 500, FailPerSec: 250}
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
	if got := rep.TotalOps + rep.TotalCancelled; got != sc.Ops || rep.Dropped != 0 {
		t.Errorf("%d operations served, %d dropped; want %d and 0", got, rep.Dropped, sc.Ops)
	}
	c := rep.Churn
	if c.Joins+c.Leaves+c.Fails == 0 || c.Errors != 0 {
		t.Errorf("churn %+v: want events fired and no errors", c)
	}
	if err := net.Audit(); err != nil {
		t.Errorf("audit after churn run: %v", err)
	}
}

// TestScheduleIsSeeded draws 10k arrivals from two schedules of one seed
// and origin: their (offset, kind) sequences are byte-identical, the churn
// share is within 4σ of μ/(λ+μ) and the last offset within 4σ of n/(λ+μ).
// A churn-free and an all-churn schedule draw only their own kinds.
func TestScheduleIsSeeded(t *testing.T) {
	const n = 10_000
	origin := time.Unix(1_700_000_000, 0)
	draw := func(sc Scenario) (seq []byte, churn int, last time.Duration) {
		s := newSchedule(&sc, origin)
		for i := 0; i < n; i++ {
			at, kind := s.next()
			last = at.Sub(origin)
			seq = binary.BigEndian.AppendUint64(seq, uint64(last))
			seq = append(seq, byte(kind))
			if kind >= numOps {
				churn++
			}
		}
		return seq, churn, last
	}
	sc := small()
	sc.Churn = Churn{JoinPerSec: 300, LeavePerSec: 220, FailPerSec: 80}
	sc = sc.withDefaults()
	a, churn, last := draw(sc)
	if b, _, _ := draw(sc); !bytes.Equal(a, b) {
		t.Error("two schedules of one seed and origin drew different arrivals")
	}
	lambda, mu := sc.Arrival.RatePerSec, sc.Churn.totalRate()
	p := mu / (lambda + mu)
	if sd := math.Sqrt(n * p * (1 - p)); math.Abs(float64(churn)-n*p) > 4*sd {
		t.Errorf("%d churn arrivals of %d, want %.0f ± %.0f", churn, n, n*p, 4*sd)
	}
	mean := float64(time.Second) / (lambda + mu)
	if sd := math.Sqrt(n) * mean; math.Abs(float64(last)-n*mean) > 4*sd {
		t.Errorf("%d arrivals span %v, want %v ± %v", n, last, time.Duration(n*mean), time.Duration(4*sd))
	}

	sc.Churn = Churn{}
	if _, churn, _ := draw(sc); churn != 0 {
		t.Errorf("churn-free schedule drew %d churn arrivals", churn)
	}
	sc.Churn, sc.Arrival.RatePerSec = Churn{JoinPerSec: 10, FailPerSec: 5}, 0
	if _, churn, _ := draw(sc); churn != n {
		t.Errorf("all-churn schedule drew %d operations", n-churn)
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
	if got := un.Count + pub.Count; got != 100 || rep.Dropped != 0 {
		t.Errorf("counts sum to %d with %d dropped, want 100 and none dropped", got, rep.Dropped)
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
		"total_ops", "throughput_per_sec", "ops", "churn"} {
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
	for _, key := range []string{"count", "throughput_per_sec", "latency_ms", "hops", "messages", "dest_peers"} {
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
