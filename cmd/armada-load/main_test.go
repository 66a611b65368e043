package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"armada"
	"armada/workload"
)

// runJSON executes the CLI and decodes its JSON report.
func runJSON(t *testing.T, args ...string) map[string]any {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	var m map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &m); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	return m
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"steady", "zipf-hot", "scan-heavy", "hot-drift", "churn-heavy", "flood-storm", "mixed"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing preset %q:\n%s", name, stdout.String())
		}
	}
}

func TestPresetSmall(t *testing.T) {
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "200", "-preload", "150", "-seed", "3")
	if total, dropped := m["total_ops"].(float64), m["dropped"].(float64); total != 200 || dropped != 0 {
		t.Errorf("total_ops %v, dropped %v; want all 200 arrivals served", total, dropped)
	}
	ops := m["ops"].(map[string]any)
	rng, ok := ops["range"].(map[string]any)
	if !ok {
		t.Fatalf("ops.range missing: %v", ops)
	}
	lat := rng["latency_ms"].(map[string]any)
	for _, k := range []string{"p50", "p95", "p99", "max"} {
		if _, ok := lat[k]; !ok {
			t.Errorf("latency_ms missing %q", k)
		}
	}
	if _, ok := rng["hops"]; !ok {
		t.Error("ops.range missing hops")
	}
}

func TestChurnHeavySmall(t *testing.T) {
	m := runJSON(t, "-scenario", "churn-heavy", "-peers", "100", "-ops", "0", "-duration", "150ms",
		"-preload", "200", "-churn", "join=800,leave=600,fail=300")
	if got := m["total_errors"].(float64); got != 0 {
		t.Errorf("total_errors = %v, want 0", got)
	}
	churn := m["churn"].(map[string]any)
	events := churn["joins"].(float64) + churn["leaves"].(float64) + churn["fails"].(float64)
	if events == 0 {
		t.Errorf("no churn events executed: %v", churn)
	}
}

func TestCustomMixFlags(t *testing.T) {
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "150", "-preload", "80",
		"-mix", "range=50,flood=20,lookup=10,publish=10,unpublish=10",
		"-keys", "hotspot",
		"-range-frac", "0.005:0.05", "-attrs", "2", "-workers", "3")
	if got := m["attributes"].(float64); got != 2 {
		t.Errorf("attributes = %v, want 2", got)
	}
	ops := m["ops"].(map[string]any)
	if _, ok := ops["flood"]; !ok {
		t.Errorf("flood ops missing from custom mix: %v", ops)
	}
}

func TestOpenLoopFlag(t *testing.T) {
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "100", "-preload", "50",
		"-rate", "20000")
	// 20000/s overloads the executors, and a run -ops stops still serves
	// every arrival, late.
	if total, dropped := m["total_ops"].(float64), m["dropped"].(float64); total != 100 || dropped != 0 {
		t.Errorf("total_ops %v, dropped %v; want all 100 arrivals served", total, dropped)
	}
	for _, key := range []string{"queue_wait_ms", "dispatch_late_ms"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report missing %s", key)
		}
	}
}

func TestFlagBuiltCustomScenario(t *testing.T) {
	m := runJSON(t, "-peers", "60", "-ops", "120", "-preload", "60",
		"-mix", "range=70,publish=15,unpublish=15")
	if got := m["scenario"].(string); got != "custom" {
		t.Errorf("scenario = %q, want custom (no preset base)", got)
	}
	if got := m["attributes"].(float64); got != 1 {
		t.Errorf("attributes = %v, want the workload default 1", got)
	}
	if total, dropped := m["total_ops"].(float64), m["dropped"].(float64); total != 120 || dropped != 0 {
		t.Errorf("total_ops %v, dropped %v; want all 120 arrivals served", total, dropped)
	}
}

func TestScanHeavySmall(t *testing.T) {
	m := runJSON(t, "-scenario", "scan-heavy", "-peers", "100", "-ops", "250", "-preload", "500")
	ops := m["ops"].(map[string]any)
	rp, ok := ops["range-paged"].(map[string]any)
	if !ok {
		t.Fatalf("ops.range-paged missing: %v", ops)
	}
	if saved, _ := rp["descents_saved"].(float64); saved == 0 {
		t.Error("scan-heavy sessions saved no descents")
	}
	if hits, _ := m["metrics"].(map[string]any)["shortcut_hits_total"].(float64); hits == 0 {
		t.Error("scan-heavy run produced no cache hits")
	}
	// The ablation flag drops the route cache without touching anything
	// else of the scenario.
	m = runJSON(t, "-scenario", "scan-heavy", "-peers", "100", "-ops", "250", "-preload", "500", "-no-shortcut")
	if _, ok := m["metrics"].(map[string]any)["shortcut_hits_total"]; ok {
		t.Error("-no-shortcut still ran a route cache")
	}
}

func TestParseErrorNotMasked(t *testing.T) {
	// A later flag parsing cleanly must not swallow an earlier flag's
	// parse error (Visit iterates flags in lexical order).
	var stdout, stderr bytes.Buffer
	args := []string{"-mix", "bogus", "-range-frac", "0.01:0.1", "-peers", "20", "-ops", "50"}
	if err := run(context.Background(), args, &stdout, &stderr); err == nil {
		t.Errorf("run(%v) succeeded; the -mix parse error was masked", args)
	}
}

func TestBadFlags(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cases := [][]string{
		{"-scenario", "no-such"},
		{"-mix", "bogus=1"},
		{"-mix", "range"},
		{"-keys", "gaussian"},
		{"-range-frac", "0.5"},
		{"-churn", "melt=1"},
		{"-rate", "0"}, // must not fall back to the default rate
		{"-rate", "-1"},
		{"-scenario", "steady", "-peers", "60", "-preload", "50", "-ops", "200", "-rate", "1e-300"},
		{"-scenario", "steady", "-peers", "60", "-preload", "50", "-ops", "300", "-churn", "join=1e-300"},
		{"-scenario", "steady", "-duration", "1s", "-rate", "1e12"},       // hung at its stop
		{"-scenario", "steady", "-duration", "1s", "-churn", "join=1e12"}, // joined back to back under the write lock
		// ran out of memory
		{"-scenario", "steady", "-peers", "60", "-preload", "50", "-ops", "10", "-slow-log", "2000000000"},
		// ran the whole scenario and exited 0, the listener's error only on stderr
		{"-metrics-addr", "256.1.1.1:99999"},
		{"-metrics-addr", taken.Addr().String()},
		{"-pprof-addr", "256.1.1.1:99999"},
		{"-pprof-addr", taken.Addr().String()},
		{"-audit-sample", "-1"},
		{"-snapshot-verify"},
		{"-attrs", "-1"}, // panicked sizing the attribute spaces
		{"-attrs", "0"},  // ran with the default single space
		// ran for minutes to serve one arrival
		{"-scenario", "steady", "-peers", "60", "-preload", "50", "-ops", "1", "-workers", "100000000"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestNonFiniteFlagsRefused: ParseFloat accepts "NaN" and "Inf", so these
// command lines parse; each must then be refused as a scenario instead of
// running some other workload (a NaN weight ran the whole mix as range-paged,
// a NaN churn rate silently disabled churn).
func TestNonFiniteFlagsRefused(t *testing.T) {
	for _, flag := range [][]string{
		{"-mix", "range=NaN"},
		{"-mix", "range=Inf"},
		{"-range-frac", "NaN:0.5"},
		{"-rate", "NaN"},
		{"-churn", "join=NaN"},
	} {
		args := append([]string{"-peers", "50", "-ops", "200"}, flag...)
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); !errors.Is(err, workload.ErrBadScenario) {
			t.Errorf("run(%v): err = %v, want ErrBadScenario", args, err)
		}
	}
}

// FuzzScenarioFlags feeds arbitrary -mix, -churn and -range-frac strings and
// -rate, -slow-log and -workers values through the parsers run uses, then
// Normalize: the flags are untrusted input. Nothing may panic, and a
// scenario Normalize accepts holds only finite numbers inside the ranges
// validate states, an arrival rate of at least one an hour, a churn total
// of zero or at least one an hour, arrivals and churn together at most one
// a nanosecond, a slow-query log no larger than armada.MaxSlowLogCapacity
// and between 1 and workload.MaxWorkers executors. The committed corpus
// (testdata/fuzz) holds the command lines that used to run: non-finite
// numbers, an arrival or churn rate of 1e-300/s, an arrival or churn rate
// of 1e12/s, a slow-query log of 2e9 and 1e8 executors.
func FuzzScenarioFlags(f *testing.F) {
	f.Add("range=70,publish=10,lookup=10,unpublish=5,top-k=5", "join=40,leave=30,fail=10", "0.01:0.1", 0.0, 0, 0)
	f.Fuzz(func(t *testing.T, mix, churn, frac string, rate float64, slowLog, workers int) {
		sc := workload.Scenario{Name: "custom", Ops: 3000}
		var err error
		if sc.Mix, err = parseMix(mix); err != nil {
			return
		}
		if sc.Churn, err = parseChurn(churn, sc.Churn); err != nil {
			return
		}
		if sc.RangeSize, err = parseRangeFrac(frac); err != nil {
			return
		}
		sc.Arrival.RatePerSec = rate
		sc.SlowQueryLog = slowLog
		sc.Arrival.Workers = workers
		n, err := sc.Normalize()
		if err != nil {
			if !errors.Is(err, workload.ErrBadScenario) {
				t.Fatalf("Normalize: %v, want ErrBadScenario", err)
			}
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		m, total := n.Mix, 0.0
		for _, w := range []float64{m.Publish, m.Unpublish, m.Lookup, m.Range, m.MultiRange, m.TopK, m.Flood, m.RangePaged} {
			if !finite(w) || w < 0 {
				t.Fatalf("accepted mix %+v has weight %v", m, w)
			}
			total += w
		}
		if !finite(total) || total <= 0 {
			t.Fatalf("accepted mix %+v totals %v", m, total)
		}
		c := n.Churn
		for _, r := range []float64{c.JoinPerSec, c.LeavePerSec, c.FailPerSec, c.JoinPerSec + c.LeavePerSec + c.FailPerSec} {
			if !finite(r) || r < 0 {
				t.Fatalf("accepted churn %+v has rate %v", c, r)
			}
		}
		if r := c.JoinPerSec + c.LeavePerSec + c.FailPerSec; r > 0 && r < 1.0/3600 {
			t.Fatalf("accepted churn %+v totals %v/s, under one an hour", c, r)
		}
		if r := n.RangeSize; !finite(r.MinFrac) || !finite(r.MaxFrac) || r.MinFrac < 0 || r.MinFrac > r.MaxFrac || r.MaxFrac > 1 {
			t.Fatalf("accepted range size %+v", r)
		}
		if r := n.Arrival.RatePerSec; !finite(r) || r < 1.0/3600 || r > 1e9 {
			t.Fatalf("accepted arrival rate %v", r)
		}
		if r := n.Arrival.RatePerSec + c.JoinPerSec + c.LeavePerSec + c.FailPerSec; r > 1e9 {
			t.Fatalf("accepted arrivals and churn totalling %v/s", r)
		}
		if c := n.SlowQueryLog; c < 0 || c > armada.MaxSlowLogCapacity {
			t.Fatalf("accepted slow-query log capacity %d", c)
		}
		if w := n.Arrival.Workers; w < 1 || w > workload.MaxWorkers {
			t.Fatalf("accepted %d workers", w)
		}
	})
}

func TestTraceOutAndMetrics(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "200", "-preload", "150",
		"-seed", "3", "-trace-out", path)
	// -trace-out implies the diagnostics; the dump must be valid Chrome
	// trace-event JSON with at least one query span.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace dump missing: %v", err)
	}
	var dump struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace dump is not Chrome trace JSON: %v", err)
	}
	var spans, hops int
	for _, te := range dump.TraceEvents {
		if te.Ph == "b" {
			spans++
		}
		if te.Cat == "hop" {
			hops++
		}
	}
	if spans == 0 || hops == 0 {
		t.Errorf("trace dump has %d query spans and %d hops, want both > 0", spans, hops)
	}
	// The report's metrics block carries the conformance counter.
	metrics, ok := m["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("report missing metrics block: %v", m)
	}
	if v, _ := metrics["engine_messages_total"].(float64); v <= 0 {
		t.Errorf("metrics.engine_messages_total = %v, want > 0", v)
	}
	if v, ok := metrics["delay_bound_violations"].(float64); !ok || v != 0 {
		t.Errorf("metrics.delay_bound_violations = %v (present %v), want 0", v, ok)
	}
}

// TestReportIsARegistryView: one hot-drift run with every counter-owning
// layer on — route cache, load control, two replicas, diagnostics. Every
// name a CI leg asserts is in the report's metrics and in what /metrics
// serves for the same network, no top-level block of the report copies one
// of them, and neither the report nor the -slow-out dump carries an slo
// block: the delay bound is checked by the post-run audit, not budgeted.
func TestReportIsARegistryView(t *testing.T) {
	var text string
	mux, stop, done := metricsMux(io.Discard), make(chan struct{}), make(chan struct{})
	go func() { // scrape /metrics once while the run's network is live
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			rec := httptest.NewRecorder()
			if mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil)); rec.Code == http.StatusOK {
				text = rec.Body.String()
				return
			}
		}
	}()
	slowPath := t.TempDir() + "/slow.json"
	m := runJSON(t, "-scenario", "hot-drift", "-peers", "100", "-duration", "300ms", "-preload", "200",
		"-shortcut-table", "64", "-slow-out", slowPath)
	close(stop)
	<-done
	metrics := m["metrics"].(map[string]any)
	for _, name := range []string{"delay_bound_violations", "shortcut_hits_total", "shortcut_misses_total",
		"loadctl_auto_splits_total", "loadctl_migrations_total", "fissione_re_replications_total"} {
		if _, ok := metrics[name]; !ok {
			t.Errorf("report metrics lack %s", name)
		}
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("/metrics lacks %s:\n%s", name, text)
		}
	}
	for key, want := range map[string]bool{"env": true, "tail_attribution": true,
		"shortcut": false, "load_control": false, "re_replications": false, "delay_bound_violations": false, "slo": false} {
		if _, ok := m[key]; ok != want {
			t.Errorf("report top-level %q present %v, want %v (counters live in metrics only)", key, ok, want)
		}
	}
	data, err := os.ReadFile(slowPath)
	if err != nil {
		t.Fatalf("-slow-out dump missing: %v", err)
	}
	var dump map[string]any
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("-slow-out dump is not JSON: %v", err)
	}
	if _, ok := dump["tail_attribution"]; !ok {
		t.Error("-slow-out dump lacks tail_attribution")
	}
	if _, ok := dump["slo"]; ok {
		t.Error("-slow-out dump still carries an slo block")
	}
}
