package workload

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDelayBoundViolationsZero is the conformance property test: across
// scaled-down presets covering uniform, skewed and churning traffic, no
// query may ever reach the paper's 2·log₂N hop bound.
func TestDelayBoundViolationsZero(t *testing.T) {
	for _, name := range []string{"steady", "zipf-hot", "churn-heavy"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := Preset(name)
			if !ok {
				t.Fatalf("preset %q missing", name)
			}
			// Scale the preset down; the property must hold at any size.
			sc.Peers = 150
			sc.Preload = 600
			sc.Ops = 800
			rep, err := Execute(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := rep.Metrics["delay_bound_violations"]; !ok || v != 0 {
				t.Errorf("delay_bound_violations = %d (present %v), want 0", v, ok)
			}
			if rep.Metrics["query_delay_vs_bound_count"] == 0 {
				t.Error("conformance histogram never sampled")
			}
		})
	}
}

// TestReportCarriesMetrics: the report's full-run metrics block is
// populated and carries the conformance counter.
func TestReportCarriesMetrics(t *testing.T) {
	rep, err := Execute(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine_messages_total", "engine_deliveries_total", "engine_descents_total"} {
		if rep.Metrics[name] <= 0 {
			t.Errorf("report metrics[%s] = %d, want > 0", name, rep.Metrics[name])
		}
	}
	if _, ok := rep.Metrics["delay_bound_violations"]; !ok {
		t.Error("report metrics lack delay_bound_violations")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"metrics"`, `"delay_bound_violations"`, `"latency_ms"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON lacks %s", key)
		}
	}
}

// TestHotDriftCapMigrations: with the growth cap clamped, the controller
// must relieve the drifting hotspot through ownership migration.
func TestHotDriftCapMigrations(t *testing.T) {
	if testing.Short() {
		t.Skip("3s wall-clock run")
	}
	sc, ok := Preset("hot-drift-cap")
	if !ok {
		t.Fatal("preset hot-drift-cap missing")
	}
	sc.Duration = 3 * time.Second
	sc.MaxGrowth = 2
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["loadctl_migrations_total"] == 0 {
		t.Errorf("migrations = 0 under a growth cap of %d (auto_splits = %d)",
			sc.MaxGrowth, rep.Metrics["loadctl_auto_splits_total"])
	}
	if v, ok := rep.Metrics["delay_bound_violations"]; !ok || v != 0 {
		t.Errorf("delay_bound_violations = %d (present %v) under load control, want 0", v, ok)
	}
}

func TestObsScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Ops: 10, LoadControl: true, MaxGrowth: -1},
		{Ops: 10, MaxGrowth: 4}, // growth cap without load control
		{Ops: 10, SlowQueryLog: -1},
	}
	for i, sc := range bad {
		if err := sc.withDefaults().validate(); !errors.Is(err, ErrBadScenario) {
			t.Errorf("bad scenario %d: err = %v, want ErrBadScenario", i, err)
		}
	}
	good := Scenario{Ops: 10, SlowQueryLog: 64}
	if err := good.withDefaults().validate(); err != nil {
		t.Errorf("slow-query-log scenario rejected: %v", err)
	}
}
