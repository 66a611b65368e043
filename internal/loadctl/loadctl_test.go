package loadctl

import (
	"errors"
	"testing"
	"time"
)

// fakeActuator scripts the samples the controller sees and records the
// actions it takes. Tick calls back synchronously, so no locking is needed
// in single-goroutine tests.
type fakeActuator struct {
	samples    []Sample
	splits     []string
	migrations [][2]string
	extra      int
	err        error
}

func (f *fakeActuator) Sample() []Sample { return f.samples }

func (f *fakeActuator) Split(id string) (int, error) {
	f.splits = append(f.splits, id)
	return f.extra, f.err
}

func (f *fakeActuator) Migrate(donor, hot string) (int, error) {
	f.migrations = append(f.migrations, [2]string{donor, hot})
	return f.extra, f.err
}

// instant is a config whose EWMA tracks the instantaneous rate almost
// exactly (nanosecond half-life), so tests reason about deliveries/sec
// directly instead of convergence curves.
func instant(threshold float64) Config {
	return Config{
		HalfLife:       time.Nanosecond,
		SplitThreshold: threshold,
		Cooldown:       time.Millisecond,
		MaxGrowth:      64,
	}
}

// tick advances the controller by one 100ms step with the given cumulative
// counters, returning the new clock.
func tick(c *Controller, act *fakeActuator, at time.Time, counts map[string]int64) time.Time {
	for i, s := range act.samples {
		if v, ok := counts[s.ID]; ok {
			act.samples[i].Deliveries = v
		}
	}
	c.Tick(at)
	return at.Add(100 * time.Millisecond)
}

func TestEWMAConvergesToSustainedRate(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	// Default half-life (500ms): convergence takes several ticks.
	c := New(Config{SplitThreshold: 1e12}, act)
	at := time.Unix(0, 0)
	var total int64
	for i := 0; i < 60; i++ { // 6s at 100 deliveries per 100ms = 1000/s
		total += 100
		at = tick(c, act, at, map[string]int64{"a": total})
	}
	rates := c.Rates()
	if len(rates) != 1 {
		t.Fatalf("rates = %+v", rates)
	}
	got := rates[0].Rate
	if got < 990 || got > 1010 {
		t.Fatalf("EWMA rate = %.1f after 12 half-lives of a sustained 1000/s, want ~1000", got)
	}
}

func TestSplitFiresOnHotRegion(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "hot", Width: 10}, {ID: "cold", Width: 10}}}
	c := New(instant(500), act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil) // first observation: counters initialize, no rate
	if len(act.splits) != 0 {
		t.Fatalf("split on the very first observation: %v", act.splits)
	}
	tick(c, act, at, map[string]int64{"hot": 100, "cold": 1}) // 1000/s vs 10/s
	if len(act.splits) != 1 || act.splits[0] != "hot" {
		t.Fatalf("splits = %v, want [hot]", act.splits)
	}
	if c.autoSplits.Value() != 1 || c.migrations.Value() != 0 {
		t.Fatalf("splits = %d, migrations = %d", c.autoSplits.Value(), c.migrations.Value())
	}
	if rates := c.Rates(); rates[0].ID != "hot" {
		t.Fatalf("hottest = %+v, want hot first", rates)
	}
}

func TestBelowThresholdNoAction(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	c := New(instant(2000), act)
	at := time.Unix(0, 0)
	var total int64
	for i := 0; i < 10; i++ {
		total += 100 // 1000/s, threshold 2000
		at = tick(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits)+len(act.migrations) != 0 {
		t.Fatalf("actions below threshold: splits=%v migrations=%v", act.splits, act.migrations)
	}
}

func TestCooldownSeparatesActions(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	cfg := instant(500)
	cfg.Cooldown = time.Second
	c := New(cfg, act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	var total int64
	for i := 0; i < 5; i++ { // 500ms of sustained heat, all inside the cooldown
		total += 100
		at = tick(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits) != 1 {
		t.Fatalf("%d splits within one cooldown window, want exactly 1", len(act.splits))
	}
	at = at.Add(time.Second) // past the cooldown
	total += 1000
	tick(c, act, at, map[string]int64{"a": total})
	if len(act.splits) != 2 {
		t.Fatalf("no second split after the cooldown elapsed: %v", act.splits)
	}
}

func TestMigrationAtGrowthCap(t *testing.T) {
	act := &fakeActuator{samples: []Sample{
		{ID: "hot", Width: 10},
		{ID: "cold", Width: 10},
		{ID: "mid", Width: 10},
	}}
	cfg := instant(500)
	cfg.MaxGrowth = 1
	cfg.Migrate = true
	c := New(cfg, act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	counts := map[string]int64{"hot": 100, "cold": 0, "mid": 30}
	at = tick(c, act, at, counts) // grown 0 < 1: split
	if len(act.splits) != 1 {
		t.Fatalf("splits = %v, want the pre-cap split", act.splits)
	}
	at = at.Add(10 * time.Millisecond) // past the 1ms cooldown
	counts["hot"] += 200
	counts["mid"] += 60
	tick(c, act, at, counts) // at cap: migrate cold → hot
	if len(act.migrations) != 1 {
		t.Fatalf("migrations = %v, want one at the growth cap", act.migrations)
	}
	if m := act.migrations[0]; m != [2]string{"cold", "hot"} {
		t.Fatalf("migration = %v, want cold donor and hot target", m)
	}
	if c.autoSplits.Value() != 1 || c.migrations.Value() != 1 {
		t.Fatalf("splits = %d, migrations = %d", c.autoSplits.Value(), c.migrations.Value())
	}
}

func TestMigrationNeedsColdDonor(t *testing.T) {
	// Both regions run warm: nobody qualifies as a donor (coldFraction of
	// the mean), so at the cap the controller must hold still.
	act := &fakeActuator{samples: []Sample{{ID: "hot", Width: 10}, {ID: "warm", Width: 10}}}
	cfg := instant(500)
	cfg.MaxGrowth = 1
	cfg.Migrate = true
	c := New(cfg, act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	counts := map[string]int64{"hot": 100, "warm": 80}
	at = tick(c, act, at, counts) // the one pre-cap split
	for i := 0; i < 5; i++ {
		at = at.Add(10 * time.Millisecond)
		counts["hot"] += 100
		counts["warm"] += 80
		at = tick(c, act, at, counts)
	}
	if len(act.migrations) != 0 {
		t.Fatalf("migrated with no cold donor: %v", act.migrations)
	}
}

func TestWidthGuardBlocksNarrowRegions(t *testing.T) {
	// Width 4 with the default MinRegionWidth 4: splitting would leave 3
	// free symbols, below the floor, so the region is untouchable however
	// hot it runs.
	act := &fakeActuator{samples: []Sample{{ID: "narrow", Width: 4}}}
	c := New(instant(500), act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	var total int64
	for i := 0; i < 5; i++ {
		total += 1000
		at = tick(c, act, at, map[string]int64{"narrow": total})
	}
	if len(act.splits) != 0 {
		t.Fatalf("split a region at the width floor: %v", act.splits)
	}
}

func TestRenameInitializesWithoutSpike(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	c := New(instant(500), act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	at = tick(c, act, at, map[string]int64{"a": 1})
	// "a" splits and survives as "a0": the cumulative counter rides along.
	// Treating it as one tick's delta would read as 500000/s and trigger
	// an immediate re-split.
	act.samples = []Sample{{ID: "a0", Width: 9}, {ID: "a1", Width: 9}}
	at = tick(c, act, at, map[string]int64{"a0": 50000, "a1": 0})
	if len(act.splits) != 0 {
		t.Fatalf("rename spike triggered a split: %v", act.splits)
	}
	rates := c.Rates()
	if len(rates) != 2 {
		t.Fatalf("tracked = %d after rename, want 2 (old identifier pruned)", len(rates))
	}
	for _, r := range rates {
		if r.ID == "a" {
			t.Fatalf("vanished identifier still tracked: %+v", rates)
		}
		if r.Rate != 0 {
			t.Fatalf("fresh identifier %q starts with rate %.0f, want 0", r.ID, r.Rate)
		}
	}
}

func TestFailedActionCountsAndCoolsDown(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}, err: errors.New("no")}
	cfg := instant(500)
	cfg.Cooldown = time.Second
	c := New(cfg, act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil)
	var total int64
	for i := 0; i < 5; i++ { // sustained heat inside one cooldown window
		total += 100
		at = tick(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits) != 1 {
		t.Fatalf("failed action retried within its cooldown: %d attempts", len(act.splits))
	}
	if c.failedActions.Value() != 1 || c.autoSplits.Value() != 0 {
		t.Fatalf("failed = %d, splits = %d, want the failure counted and no split", c.failedActions.Value(), c.autoSplits.Value())
	}
}

func TestStopWithoutStartReturns(t *testing.T) {
	c := New(Config{}, &fakeActuator{})
	done := make(chan struct{})
	go func() { c.Stop(); c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hangs on a never-started controller")
	}
}

func TestStartStop(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	cfg := Config{SampleInterval: time.Millisecond, SplitThreshold: 1e12}
	c := New(cfg, act)
	c.Start()
	c.Start() // idempotent
	time.Sleep(20 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	if rates := c.Rates(); len(rates) != 1 {
		t.Fatalf("loop never sampled: %+v", rates)
	}
}
