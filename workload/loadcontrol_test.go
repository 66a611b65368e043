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

func TestHotDriftMovesTheHotspot(t *testing.T) {
	sc := Scenario{
		Keys:     KeyDist{Kind: KeyHotspot, HotFraction: 0.1, HotWeight: 1},
		HotDrift: 200 * time.Millisecond,
	}
	s := newSampler(&sc, 1)
	h1 := s.hotLow()
	time.Sleep(40 * time.Millisecond)
	h2 := s.hotLow()
	if h2 <= h1 {
		t.Fatalf("hot interval did not advance: %.4f -> %.4f", h1, h2)
	}
	if h2 >= 1-sc.Keys.HotFraction {
		t.Fatalf("hot low %.4f past the sweep span %.4f", h2, 1-sc.Keys.HotFraction)
	}
	// All hot draws stay inside the current interval (sampled right after
	// hotLow, so the drift between the two calls is negligible).
	for i := 0; i < 200; i++ {
		lo := s.hotLow()
		f := s.frac()
		if f < lo-0.01 || f > lo+sc.Keys.HotFraction+0.01 {
			t.Fatalf("draw %.4f outside hot interval [%.4f, %.4f]", f, lo, lo+sc.Keys.HotFraction)
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
		{Ops: 10, LoadControl: true, SplitThreshold: -1},
		{Ops: 10, SplitThreshold: 100}, // threshold without load control
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
