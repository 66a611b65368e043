package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
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
	if got := m["total_ops"].(float64); got != 200 {
		t.Errorf("total_ops = %v, want 200", got)
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
	if _, ok := rng["hop_delay"]; !ok {
		t.Error("ops.range missing hop_delay")
	}
}

func TestChurnHeavySmall(t *testing.T) {
	m := runJSON(t, "-scenario", "churn-heavy", "-peers", "100", "-ops", "300",
		"-preload", "200", "-churn", "join=800,leave=600,fail=300", "-min-peers", "48",
		"-think", "300us")
	if got := m["total_errors"].(float64); got != 0 {
		t.Errorf("total_errors = %v, want 0", got)
	}
	churn := m["churn"].(map[string]any)
	events := churn["joins"].(float64) + churn["leaves"].(float64) + churn["fails"].(float64)
	if events == 0 {
		t.Errorf("no churn events executed: %v", churn)
	}
	if len(m["intervals"].([]any)) == 0 {
		t.Error("no interval snapshots")
	}
}

func TestCustomMixFlags(t *testing.T) {
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "150", "-preload", "80",
		"-mix", "range=50,flood=20,lookup=10,publish=10,unpublish=10",
		"-keys", "hotspot", "-hot-frac", "0.2", "-hot-weight", "0.8",
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
	// At 20000/s the dispatcher overloads the workers; completed plus
	// dropped arrivals must account for every one of the 100 generated.
	total := m["total_ops"].(float64)
	dropped := 0.0
	if d, ok := m["dropped"]; ok {
		dropped = d.(float64)
	}
	if total+dropped != 100 {
		t.Errorf("total_ops %v + dropped %v = %v arrivals, want 100", total, dropped, total+dropped)
	}
	if total == 0 {
		t.Error("open-loop run completed no ops")
	}
	if _, ok := m["queue_wait_ms"]; !ok {
		t.Error("open-loop report missing queue_wait_ms")
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
	if got := m["total_ops"].(float64); got != 120 {
		t.Errorf("total_ops = %v, want 120", got)
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
	fc, ok := m["shortcut"].(map[string]any)
	if !ok {
		t.Fatalf("report missing the shortcut block: %v", m)
	}
	if hits, _ := fc["hits"].(float64); hits == 0 {
		t.Error("scan-heavy run produced no cache hits")
	}
	// The ablation flag turns the savings off without touching anything
	// else of the scenario.
	m = runJSON(t, "-scenario", "scan-heavy", "-peers", "100", "-ops", "250", "-preload", "500",
		"-paged-no-session", "-no-shortcut")
	rp = m["ops"].(map[string]any)["range-paged"].(map[string]any)
	if saved, _ := rp["descents_saved"].(float64); saved != 0 {
		t.Errorf("ablation run saved %v descents, want 0", saved)
	}
	if _, ok := m["shortcut"]; ok {
		t.Error("-no-shortcut still reported a cache block")
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
	cases := [][]string{
		{"-scenario", "no-such"},
		{"-mix", "bogus=1"},
		{"-mix", "range"},
		{"-keys", "gaussian"},
		{"-range-frac", "0.5"},
		{"-churn", "melt=1"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestHotDriftSmall(t *testing.T) {
	m := runJSON(t, "-scenario", "hot-drift", "-peers", "100", "-duration", "300ms",
		"-preload", "200", "-hot-drift", "500ms")
	lc, ok := m["load_control"].(map[string]any)
	if !ok {
		t.Fatalf("report missing load_control block: %v", m)
	}
	if _, ok := lc["auto_splits"]; !ok {
		t.Errorf("load_control missing auto_splits: %v", lc)
	}
	if _, ok := m["delivery_skew"].(map[string]any); !ok {
		t.Error("report missing delivery_skew block")
	}
	if _, ok := m["env"].(map[string]any); !ok {
		t.Error("report missing env block")
	}
	// -load-control=false overrides the preset: controller off, block gone,
	// and the preset's split threshold dropped with it.
	m = runJSON(t, "-scenario", "hot-drift", "-peers", "100", "-duration", "300ms",
		"-preload", "200", "-load-control=false")
	if _, ok := m["load_control"]; ok {
		t.Error("-load-control=false still reported a load_control block")
	}
}

func TestTraceOutAndMetrics(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	m := runJSON(t, "-scenario", "steady", "-peers", "60", "-ops", "200", "-preload", "150",
		"-seed", "3", "-trace-out", path)
	// -trace-out implies a flight recorder; the dump must be valid Chrome
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
	// The report carries the metrics block and the conformance counter.
	metrics, ok := m["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("report missing metrics block: %v", m)
	}
	if v, _ := metrics["engine_messages_total"].(float64); v <= 0 {
		t.Errorf("metrics.engine_messages_total = %v, want > 0", v)
	}
	if v, ok := m["delay_bound_violations"].(float64); !ok || v != 0 {
		t.Errorf("delay_bound_violations = %v (present %v), want 0", v, ok)
	}
}

func TestMaxGrowthFlag(t *testing.T) {
	m := runJSON(t, "-scenario", "hot-drift-cap", "-peers", "100", "-duration", "300ms",
		"-preload", "200", "-max-growth", "2")
	if _, ok := m["load_control"].(map[string]any); !ok {
		t.Fatalf("report missing load_control block: %v", m)
	}
}
