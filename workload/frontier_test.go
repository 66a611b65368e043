package workload

import (
	"context"
	"errors"
	"testing"

	"armada"
)

// TestRangeBucketsRepeatRegions: quantized samplers must collapse the
// continuous range draws onto few distinct regions, and every quantized
// range must contain the continuous one it was snapped from.
func TestRangeBucketsRepeatRegions(t *testing.T) {
	sc := small()
	sc.Keys = KeyDist{Kind: KeyZipf, ZipfS: 1.3}
	sc.RangeSize = SizeDist{MinFrac: 0.01, MaxFrac: 0.05}
	sc.RangeBuckets = 64
	sc = sc.withDefaults()
	smp := newSampler(&sc, 7)

	cont := sc
	cont.RangeBuckets = 0
	csmp := newSampler(&cont, 7) // same seed: same underlying draws

	distinct := make(map[armada.Range]int)
	for i := 0; i < 500; i++ {
		q := smp.ranges(false)[0]
		c := csmp.ranges(false)[0]
		if q.Low > c.Low || q.High < c.High {
			t.Fatalf("quantized range %+v does not contain the continuous draw %+v", q, c)
		}
		step := (sc.Attrs[0].High - sc.Attrs[0].Low) / 64
		if q.High-q.Low < step*0.999 {
			t.Fatalf("quantized range %+v narrower than one bucket", q)
		}
		distinct[q]++
	}
	if len(distinct) > 250 {
		t.Errorf("%d distinct regions out of 500 zipf draws; quantization is not collapsing repeats", len(distinct))
	}
	repeats := 0
	for _, n := range distinct {
		if n > 1 {
			repeats += n
		}
	}
	if repeats < 100 {
		t.Errorf("only %d of 500 draws repeat a region; the cache would never hit", repeats)
	}
}

// TestCancelledWalkNotSampled: a paged walk cut short by shutdown must be
// counted as cancelled, not recorded as a (partial) sample.
func TestCancelledWalkNotSampled(t *testing.T) {
	net, err := armada.NewNetwork(60, armada.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sc := small()
	sc.Mix = Mix{RangePaged: 1}
	sc = sc.withDefaults()
	r, err := New(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // shutdown before the walk starts
	coll := &collector{}
	smp := newSampler(&sc, 3)
	oc := &coll.ops[OpRangePaged]
	r.doPagedRange(ctx, smp, oc, coll, 0)
	if got := oc.cancelled.Load(); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
	if got := oc.count.Load(); got != 0 {
		t.Errorf("count = %d; a cancelled walk must not be recorded", got)
	}
	if n := oc.pages.Snapshot().N(); n != 0 {
		t.Errorf("pages sample has %d entries from a cancelled walk", n)
	}

	// Same for the no-session ablation path.
	r.sc.PagedNoSession = true
	r.doPagedRange(ctx, smp, oc, coll, 0)
	if got := oc.cancelled.Load(); got != 2 {
		t.Errorf("ablation cancelled = %d, want 2", got)
	}
}

// TestNewRejectsFrontierCacheMismatch: a scenario declaring a route cache
// must run on a network built with one of the same capacity — however that
// was sized (the deprecated WithFrontierCache adds to the same cache).
func TestNewRejectsFrontierCacheMismatch(t *testing.T) {
	plain, err := armada.NewNetwork(50, armada.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sc := small()
	sc.ShortcutTable = 64
	if _, err := New(plain, sc); !errors.Is(err, ErrBadScenario) {
		t.Errorf("cache on cacheless network: err = %v, want ErrBadScenario", err)
	}

	cached, err := armada.NewNetwork(50, armada.WithSeed(3), armada.WithFrontierCache(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cached, small()); !errors.Is(err, ErrBadScenario) {
		t.Errorf("cacheless scenario on cached network: err = %v, want ErrBadScenario", err)
	}
	sc.ShortcutTable = 32
	if _, err := New(cached, sc); err != nil {
		t.Errorf("matching cache rejected: %v", err)
	}
}

// TestScanHeavyRunSavesDescents runs a small scan-heavy slice end to end:
// sessions must save descents on nearly every later page, the cache must
// hit on repeated regions, and the report must carry both.
func TestScanHeavyRunSavesDescents(t *testing.T) {
	sc, ok := Preset("scan-heavy")
	if !ok {
		t.Fatal("scan-heavy preset missing")
	}
	sc.Peers = 120
	sc.Preload = 800
	sc.Ops = 250
	rep, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rp, ok := rep.Ops[OpRangePaged.String()]
	if !ok {
		t.Fatal("no range-paged ops in a scan-heavy run")
	}
	if rp.DescentsSaved == 0 {
		t.Error("sessions saved no descents")
	}
	if rep.Shortcut == nil {
		t.Fatal("report missing the shortcut block")
	}
	if rep.Shortcut.Hits == 0 || rep.ShortcutHits == 0 {
		t.Errorf("no cache hits on quantized zipf scans: cache=%+v total_hits=%d",
			rep.Shortcut, rep.ShortcutHits)
	}
	if rep.DescentsSaved < rep.ShortcutHits {
		t.Errorf("descents_saved %d < shortcut_hits %d; hits are a subset of saves",
			rep.DescentsSaved, rep.ShortcutHits)
	}
	// The ablation re-pays every descent: zero saves by construction.
	sc.PagedNoSession = true
	sc.ShortcutTable = 0
	abl, err := Execute(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if op := abl.Ops[OpRangePaged.String()]; op.DescentsSaved != 0 || op.ShortcutHits != 0 {
		t.Errorf("ablation saved descents: %+v", op)
	}
}
