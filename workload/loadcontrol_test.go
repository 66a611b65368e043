package workload

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"armada"
)

// TestHotDriftMovesTheHotspot places the hot interval at set offsets from
// the schedule's origin: its low edge sweeps 1 − HotFraction once per
// HotDrift period and wraps.
func TestHotDriftMovesTheHotspot(t *testing.T) {
	sc := Scenario{
		Keys:     KeyDist{Kind: KeyHotspot, HotFraction: 0.1, HotWeight: 1},
		HotDrift: 200 * time.Millisecond,
	}
	s := newSampler(&sc, 1)
	span := 1 - sc.Keys.HotFraction
	for _, c := range []struct {
		off  time.Duration
		want float64
	}{
		{0, 0},
		{sc.HotDrift / 4, span / 4},
		{sc.HotDrift * 5 / 4, span / 4}, // wrapped
	} {
		s.off = c.off
		if got := s.hotLow(); got != c.want {
			t.Errorf("hot low at offset %v = %v, want %v", c.off, got, c.want)
		}
	}
	// All hot draws stay inside the interval at their offset.
	for i := 0; i < 200; i++ {
		s.off = time.Duration(i) * sc.HotDrift / 37
		lo := s.hotLow()
		if f := s.frac(); f < lo || f > lo+sc.Keys.HotFraction {
			t.Fatalf("draw %.4f at offset %v outside hot interval [%.4f, %.4f]", f, s.off, lo, lo+sc.Keys.HotFraction)
		}
	}
}

func TestHotDriftZeroPinsTheHotspot(t *testing.T) {
	sc := Scenario{Keys: KeyDist{Kind: KeyHotspot, HotFraction: 0.1, HotWeight: 1}}
	s := newSampler(&sc, 1)
	if got := s.hotLow(); got != 0 {
		t.Fatalf("hotLow = %.4f without drift, want pinned 0", got)
	}
}

func TestLoadControlScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Ops: 10, HotDrift: -time.Second, Keys: KeyDist{Kind: KeyHotspot, HotFraction: 0.1, HotWeight: 0.9}},
		{Ops: 10, HotDrift: time.Second}, // drift without hotspot keys
	}
	for i, sc := range bad {
		if err := sc.withDefaults().validate(); !errors.Is(err, ErrBadScenario) {
			t.Errorf("bad scenario %d: err = %v, want ErrBadScenario", i, err)
		}
	}
}

func TestNewRejectsLoadControlMismatch(t *testing.T) {
	plain, err := armada.NewNetwork(50, armada.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sc := small()
	sc.LoadControl = true
	if _, err := New(plain, sc); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("load-control scenario on a plain network: err = %v, want ErrBadScenario", err)
	}

	controlled, err := armada.NewNetwork(50, armada.WithSeed(3),
		armada.WithLoadControl(armada.LoadControlConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer controlled.Close()
	if _, err := New(controlled, small()); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("plain scenario on a load-controlled network: err = %v, want ErrBadScenario", err)
	}
}

// TestRunReportsLoadControl: a load-controlled run carries the env block
// with the documented JSON keys and the controller's counters in its
// metrics; a plain run has no controller counters but keeps env.
func TestRunReportsLoadControl(t *testing.T) {
	sc := small()
	sc.LoadControl = true
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Metrics["loadctl_auto_splits_total"]; !ok {
		t.Fatal("load-controlled run reported no loadctl_auto_splits_total")
	}
	if rep.Env == nil || rep.Env.GoMaxProcs <= 0 || rep.Env.NumCPU <= 0 || rep.Env.GoVersion == "" {
		t.Fatalf("env metadata missing: %+v", rep.Env)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"loadctl_auto_splits_total"`, `"env"`, `"gomaxprocs"`, `"go_version"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON lacks %s", key)
		}
	}

	plain, err := Execute(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Metrics["loadctl_auto_splits_total"]; ok {
		t.Error("plain run reported load-control counters")
	}
	if plain.Env == nil {
		t.Error("plain run lost the env block")
	}
}
