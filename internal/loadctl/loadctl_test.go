package loadctl

import (
	"errors"
	"testing"
	"time"
)

// result is what a scripted Split or Migrate reports.
type result struct {
	grown, cascades int
	err             error
}

// fakeActuator scripts the samples the controller sees and records the
// actions it takes. Tick calls back synchronously, so no locking is needed
// in single-goroutine tests.
type fakeActuator struct {
	samples    []Sample
	splits     []string
	migrations [][2]string
	// split and migrate script the actions' outcomes; nil succeeds, a split
	// growing the network by one peer and a migration by none.
	split, migrate *result
}

func (f *fakeActuator) Sample() []Sample { return f.samples }

func (f *fakeActuator) Split(id string) (int, int, error) {
	f.splits = append(f.splits, id)
	if r := f.split; r != nil {
		return r.grown, r.cascades, r.err
	}
	return 1, 0, nil
}

func (f *fakeActuator) Migrate(donor, hot string) (int, int, error) {
	f.migrations = append(f.migrations, [2]string{donor, hot})
	if r := f.migrate; r != nil {
		return r.grown, r.cascades, r.err
	}
	return 0, 0, nil
}

// step is the synthetic clock's tick. Ten half-lives long, it puts the EWMA
// weight at 1 − 2⁻¹⁰, so one tick's rate is the instantaneous one and tests
// reason about deliveries/second directly instead of convergence curves.
const step = 10 * halfLife

// perStep is how many deliveries one step adds at the given rate.
func perStep(ratePerSec int64) int64 { return ratePerSec * int64(step/time.Second) }

// tickAt sets the given cumulative counters and runs one tick at the clock.
func tickAt(c *Controller, act *fakeActuator, at time.Time, counts map[string]int64) {
	for i, s := range act.samples {
		if v, ok := counts[s.ID]; ok {
			act.samples[i].Deliveries = v
		}
	}
	c.Tick(at)
}

// tick is tickAt followed by one step of the clock, which it returns.
func tick(c *Controller, act *fakeActuator, at time.Time, counts map[string]int64) time.Time {
	tickAt(c, act, at, counts)
	return at.Add(step)
}

func TestEWMAConvergesToSustainedRate(t *testing.T) {
	// Width 4 cannot split, so the controller only measures.
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 4}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := time.Unix(0, 0)
	var total int64
	for i := 0; i < 60; i++ { // 6s at 100 deliveries per tick = 1000/s
		total += 100
		tickAt(c, act, at, map[string]int64{"a": total})
		at = at.Add(tickInterval)
	}
	rates := c.Rates()
	if len(rates) != 1 {
		t.Fatalf("rates = %+v", rates)
	}
	if got := rates["a"]; got < 990 || got > 1010 {
		t.Fatalf("EWMA rate = %.1f after 12 half-lives of a sustained 1000/s, want ~1000", got)
	}
}

func TestSplitFiresOnHotRegion(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "hot", Width: 10}, {ID: "cold", Width: 10}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := time.Unix(0, 0)
	at = tick(c, act, at, nil) // first observation: counters initialize, no rate
	if len(act.splits) != 0 {
		t.Fatalf("split on the very first observation: %v", act.splits)
	}
	tick(c, act, at, map[string]int64{"hot": perStep(1000), "cold": perStep(10)})
	if len(act.splits) != 1 || act.splits[0] != "hot" {
		t.Fatalf("splits = %v, want [hot]", act.splits)
	}
	if c.autoSplits.Value() != 1 || c.migrations.Value() != 0 {
		t.Fatalf("splits = %d, migrations = %d", c.autoSplits.Value(), c.migrations.Value())
	}
	if rates := c.Rates(); rates["hot"] < 990 || rates["hot"] <= rates["cold"] {
		t.Fatalf("rates = %v, want hot at ~1000/s and above cold", rates)
	}
}

func TestBelowThresholdNoAction(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := time.Unix(0, 0)
	var total int64
	for i := 0; i < 10; i++ {
		total += perStep(140) // just under the 150/s threshold
		at = tick(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits)+len(act.migrations) != 0 {
		t.Fatalf("actions below threshold: splits=%v migrations=%v", act.splits, act.migrations)
	}
}

func TestCooldownSeparatesActions(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	total := perStep(1000)
	tickAt(c, act, at, map[string]int64{"a": total}) // the first split
	acted := at
	for at = at.Add(tickInterval); at.Sub(acted) < cooldown; at = at.Add(tickInterval) {
		total += 100 // 1000/s, all inside the cooldown
		tickAt(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits) != 1 {
		t.Fatalf("%d splits within one cooldown window, want exactly 1", len(act.splits))
	}
	total += 100
	tickAt(c, act, at, map[string]int64{"a": total}) // the cooldown has elapsed
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
	c := New(Config{MaxGrowth: 1}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	counts := map[string]int64{"hot": perStep(1000), "cold": 0, "mid": perStep(300)}
	at = tick(c, act, at, counts) // grown 0 < 1: split
	if len(act.splits) != 1 {
		t.Fatalf("splits = %v, want the pre-cap split", act.splits)
	}
	counts["hot"] += perStep(1000)
	counts["mid"] += perStep(300)
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
	c := New(Config{MaxGrowth: 1}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	counts := map[string]int64{}
	for i := 0; i < 6; i++ { // the one pre-cap split, then five ticks at the cap
		counts["hot"] += perStep(1000)
		counts["warm"] += perStep(800)
		at = tick(c, act, at, counts)
	}
	if len(act.splits) != 1 || len(act.migrations) != 0 {
		t.Fatalf("splits = %v, migrations = %v; want the pre-cap split and no migration without a cold donor", act.splits, act.migrations)
	}
}

func TestWidthGuardBlocksNarrowRegions(t *testing.T) {
	// Width 4 against minRegionWidth 4: splitting would leave 3 free
	// symbols, below the floor, so the region is untouchable however hot
	// it runs.
	act := &fakeActuator{samples: []Sample{{ID: "narrow", Width: 4}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	var total int64
	for i := 0; i < 5; i++ {
		total += perStep(10000)
		at = tick(c, act, at, map[string]int64{"narrow": total})
	}
	if len(act.splits) != 0 {
		t.Fatalf("split a region at the width floor: %v", act.splits)
	}
}

func TestRenameInitializesWithoutSpike(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}}
	c := New(Config{MaxGrowth: 64}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	at = tick(c, act, at, map[string]int64{"a": 1})
	// "a" splits and survives as "a0": the cumulative counter rides along.
	// Treating it as one tick's delta would read as 10000/s and trigger
	// an immediate re-split.
	act.samples = []Sample{{ID: "a0", Width: 9}, {ID: "a1", Width: 9}}
	tick(c, act, at, map[string]int64{"a0": 50000, "a1": 0})
	if len(act.splits) != 0 {
		t.Fatalf("rename spike triggered a split: %v", act.splits)
	}
	rates := c.Rates()
	if len(rates) != 2 {
		t.Fatalf("tracked %v after rename, want a0 and a1 (old identifier pruned)", rates)
	}
	for id, r := range rates {
		if id == "a" {
			t.Fatalf("vanished identifier still tracked: %v", rates)
		}
		if r != 0 {
			t.Fatalf("fresh identifier %q starts with rate %.0f, want 0", id, r)
		}
	}
}

func TestFailedActionCountsAndCoolsDown(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 10}}, split: &result{err: errors.New("no")}}
	c := New(Config{MaxGrowth: 64}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	total := perStep(1000)
	tickAt(c, act, at, map[string]int64{"a": total}) // the failed split
	acted := at
	for at = at.Add(tickInterval); at.Sub(acted) < cooldown; at = at.Add(tickInterval) {
		total += 100 // sustained heat inside one cooldown window
		tickAt(c, act, at, map[string]int64{"a": total})
	}
	if len(act.splits) != 1 {
		t.Fatalf("failed action retried within its cooldown: %d attempts", len(act.splits))
	}
	if c.failedActions.Value() != 1 || c.autoSplits.Value() != 0 {
		t.Fatalf("failed = %d, splits = %d, want the failure counted and no split", c.failedActions.Value(), c.autoSplits.Value())
	}
}

// TestFailedSplitCountsItsGrowth: a split cascade that fails after two
// preparatory splits has still grown the network by two peers. Under a cap
// of two the controller is then at its cap, so the next hot tick migrates,
// and the cascade counter holds both splits.
func TestFailedSplitCountsItsGrowth(t *testing.T) {
	act := &fakeActuator{
		samples: []Sample{{ID: "hot", Width: 10}, {ID: "cold", Width: 10}, {ID: "mid", Width: 10}},
		split:   &result{grown: 2, cascades: 2, err: errors.New("cascade budget")},
	}
	c := New(Config{MaxGrowth: 2}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	counts := map[string]int64{}
	for i := 0; i < 2; i++ {
		counts["hot"] += perStep(1000)
		counts["mid"] += perStep(300)
		at = tick(c, act, at, counts)
	}
	if len(act.splits) != 1 || len(act.migrations) != 1 {
		t.Fatalf("splits = %v, migrations = %v; want the failed split, then a migration at the cap", act.splits, act.migrations)
	}
	if got := c.cascadeSplits.Value(); got != 2 {
		t.Fatalf("cascade splits = %d, want the failed split's 2", got)
	}
	if c.failedActions.Value() != 1 || c.autoSplits.Value() != 0 || c.migrations.Value() != 1 {
		t.Fatalf("failed = %d, splits = %d, migrations = %d", c.failedActions.Value(), c.autoSplits.Value(), c.migrations.Value())
	}
}

// TestFailedMigrationCountsTheLeave: a migration whose split fails after
// the donor left has shrunk the network by one peer, which takes the
// controller back under its cap, so the next hot tick splits.
func TestFailedMigrationCountsTheLeave(t *testing.T) {
	act := &fakeActuator{
		samples: []Sample{{ID: "hot", Width: 10}, {ID: "cold", Width: 10}, {ID: "mid", Width: 10}},
		migrate: &result{grown: -1, err: errors.New("split after leave")},
	}
	c := New(Config{MaxGrowth: 1}, act)
	at := tick(c, act, time.Unix(0, 0), nil)
	counts := map[string]int64{}
	for i := 0; i < 3; i++ { // split, failed migration, split
		counts["hot"] += perStep(1000)
		counts["mid"] += perStep(300)
		at = tick(c, act, at, counts)
	}
	if len(act.splits) != 2 || len(act.migrations) != 1 {
		t.Fatalf("splits = %v, migrations = %v; want split, failed migration, split", act.splits, act.migrations)
	}
	if c.failedActions.Value() != 1 || c.autoSplits.Value() != 2 || c.migrations.Value() != 0 {
		t.Fatalf("failed = %d, splits = %d, migrations = %d", c.failedActions.Value(), c.autoSplits.Value(), c.migrations.Value())
	}
}

func TestStopWithoutStartReturns(t *testing.T) {
	c := New(Config{}, &fakeActuator{})
	c.Stop()
	c.Stop()
}

func TestStartStop(t *testing.T) {
	act := &fakeActuator{samples: []Sample{{ID: "a", Width: 4}}}
	c := New(Config{}, act)
	c.Start()
	c.Start() // idempotent
	for deadline := time.Now().Add(10 * time.Second); len(c.Rates()) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("loop never sampled")
		}
	}
	c.Stop()
	c.Stop() // idempotent
}
