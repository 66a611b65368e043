package diag

import (
	"math"
	"testing"
	"time"

	"armada/internal/core"
)

// clockMonitor builds a monitor on a synthetic clock the test advances.
func clockMonitor(cfg Config) (*Monitor, *time.Duration) {
	m := NewMonitor(cfg)
	cur := new(time.Duration)
	m.now = func() time.Duration { return *cur }
	return m, cur
}

func finishAfter(m *Monitor, cur *time.Duration, d time.Duration, s core.Stats, bound float64) {
	q := m.Begin(1, "range", "p", 0)
	*cur += d
	q.Finish(s, bound, false)
}

func TestClassifierPriorities(t *testing.T) {
	m, cur := clockMonitor(Config{Threshold: time.Hour})

	// Queue wait longer than service time wins over everything.
	q := m.Begin(1, "range", "p", 50*time.Millisecond)
	*cur += 10 * time.Millisecond
	if c := m.classify(q, core.Stats{}, 0, int64(10*time.Millisecond)); c != CauseQueueWait {
		t.Fatalf("queue-wait case classified %v", c)
	}

	// A control action overlapping the query marks it split-in-flight.
	q = m.Begin(2, "range", "p", 0)
	m.NoteControlAction()
	if c := m.classify(q, core.Stats{}, 0, 0); c != CauseSplitInFlight {
		t.Fatalf("split overlap classified %v", c)
	}
	// A query starting after the action is not blamed on it.
	*cur += time.Millisecond
	q = m.Begin(3, "range", "p", 0)
	q.Note(core.HopForward)
	if c := m.classify(q, core.Stats{}, 0, 0); c == CauseSplitInFlight {
		t.Fatalf("post-action query still blamed on split")
	}

	// Routing state consulted, and a descent all the same, is a shortcut
	// miss.
	q = m.Begin(4, "lookup", "p", 0)
	q.MarkShortcutMiss()
	q.Note(core.HopForward)
	if c := m.classify(q, core.Stats{}, 0, 0); c != CauseShortcutMiss {
		t.Fatalf("shortcut miss classified %v", c)
	}
	// ...but a seeded query is not one.
	q = m.Begin(5, "lookup", "p", 0)
	q.Note(core.HopSeed)
	if c := m.classify(q, core.Stats{DescentsSaved: 1, ShortcutHits: 1}, 0, 0); c == CauseShortcutMiss {
		t.Fatalf("seeded query classified a miss")
	}

	// Realized delay near the bound is a deep descent.
	q = m.Begin(7, "range", "p", 0)
	if c := m.classify(q, core.Stats{Delay: 15}, 20, 0); c != CauseDeepDescent {
		t.Fatalf("near-bound delay classified %v", c)
	}

	// Dominant stage fallback: delivery-side time means a hot region...
	q = m.Begin(8, "range", "p", 0)
	*cur += time.Millisecond
	q.Note(core.HopForward)
	*cur += 10 * time.Millisecond
	q.Note(core.HopScan)
	if c := m.classify(q, core.Stats{Delay: 2}, 20, int64(11*time.Millisecond)); c != CauseHotRegion {
		t.Fatalf("scan-dominated query classified %v", c)
	}
	// ...forward-dominated time means a deep descent...
	q = m.Begin(9, "range", "p", 0)
	*cur += 10 * time.Millisecond
	q.Note(core.HopForward)
	*cur += time.Millisecond
	q.Note(core.HopDeliver)
	if c := m.classify(q, core.Stats{Delay: 2}, 20, int64(11*time.Millisecond)); c != CauseDeepDescent {
		t.Fatalf("forward-dominated query classified %v", c)
	}
	// ...and redirect-dominated time blames the replica redirect.
	q = m.Begin(10, "lookup", "p", 0)
	*cur += 10 * time.Millisecond
	q.Note(core.HopRedirect)
	if c := m.classify(q, core.Stats{Delay: 2}, 20, int64(10*time.Millisecond)); c != CauseReplicaRedirect {
		t.Fatalf("redirect-dominated query classified %v", c)
	}

	// No events at all: unknown.
	q = m.Begin(11, "lookup", "p", 0)
	if c := m.classify(q, core.Stats{}, 0, 0); c != CauseUnknown {
		t.Fatalf("event-free query classified %v", c)
	}
}

func TestFixedThresholdSlowLog(t *testing.T) {
	m, cur := clockMonitor(Config{Threshold: 5 * time.Millisecond, LogCapacity: 4})
	finishAfter(m, cur, time.Millisecond, core.Stats{}, 0)
	finishAfter(m, cur, 10*time.Millisecond, core.Stats{Delay: 3, Messages: 7}, 0)
	recs := m.SlowQueries()
	if len(recs) != 1 {
		t.Fatalf("want 1 slow record, got %d", len(recs))
	}
	r := recs[0]
	if r.DurationMs < 9.999 || r.ThresholdMs != 5 || r.Messages != 7 {
		t.Fatalf("bad record: %+v", r)
	}
	if m.slow.Value() != 1 || m.queries.Value() != 2 {
		t.Fatalf("counters slow=%d queries=%d", m.slow.Value(), m.queries.Value())
	}
}

func TestSlowRingWraps(t *testing.T) {
	m, cur := clockMonitor(Config{Threshold: time.Millisecond, LogCapacity: 3})
	for i := 0; i < 5; i++ {
		q := m.Begin(uint64(i+1), "range", "p", 0)
		*cur += 2 * time.Millisecond
		q.Finish(core.Stats{}, 0, false)
	}
	recs := m.SlowQueries()
	if len(recs) != 3 {
		t.Fatalf("want 3 retained records, got %d", len(recs))
	}
	for i, want := range []uint64{3, 4, 5} {
		if recs[i].QID != want {
			t.Fatalf("record %d has qid %d, want %d (oldest-first)", i, recs[i].QID, want)
		}
	}
}

func TestAdaptiveThreshold(t *testing.T) {
	m, cur := clockMonitor(Config{LogCapacity: 64})
	if thr := m.ThresholdMs(); thr != 0 {
		t.Fatalf("threshold before first batch = %v, want 0", thr)
	}
	// First batch: 126 fast queries and two 100ms stragglers (the batch
	// p99 by nearest rank lands on a straggler). Nothing is slow until
	// the batch completes and its p99 becomes the threshold.
	for i := 0; i < batchSize-2; i++ {
		finishAfter(m, cur, time.Millisecond, core.Stats{}, 0)
	}
	finishAfter(m, cur, 100*time.Millisecond, core.Stats{}, 0)
	finishAfter(m, cur, 100*time.Millisecond, core.Stats{}, 0)
	if n := len(m.SlowQueries()); n != 0 {
		t.Fatalf("%d slow records before first batch completed", n)
	}
	thr := m.ThresholdMs()
	if thr < 50 || thr > 101 {
		t.Fatalf("adaptive threshold %v ms not near the batch p99", thr)
	}
	// A query past the adaptive threshold now logs.
	finishAfter(m, cur, 200*time.Millisecond, core.Stats{}, 0)
	if n := len(m.SlowQueries()); n != 1 {
		t.Fatalf("want 1 slow record after threshold, got %d", n)
	}
}

func TestTailAttributionFractionsCoverTail(t *testing.T) {
	m, cur := clockMonitor(Config{Threshold: time.Hour})
	for i := 0; i < 500; i++ {
		finishAfter(m, cur, time.Millisecond, core.Stats{Delay: 2}, 20)
	}
	// Tail (under 1% of the run): deep descents near the bound.
	for i := 0; i < 4; i++ {
		finishAfter(m, cur, 50*time.Millisecond, core.Stats{Delay: 18}, 20)
	}
	att := m.TailAttribution()
	if att.Queries != 504 || att.TailQueries == 0 {
		t.Fatalf("attribution totals: %+v", att)
	}
	var sum float64
	for _, f := range att.Causes {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("cause fractions sum to %v: %v", sum, att.Causes)
	}
	if att.Causes["deep-descent"] != 1 {
		t.Fatalf("tail not attributed to deep descents: %v", att.Causes)
	}
	if att.P99Ms > 2 {
		t.Fatalf("p99 %v ms pulled up by the tail", att.P99Ms)
	}
}

func TestFailedQueriesExcludedFromAttribution(t *testing.T) {
	m, cur := clockMonitor(Config{Threshold: time.Millisecond})
	q := m.Begin(1, "range", "p", 0)
	*cur += 10 * time.Millisecond
	q.Finish(core.Stats{}, 0, true)
	att := m.TailAttribution()
	if att.Queries != 0 || len(att.Causes) != 0 {
		t.Fatalf("failed query leaked into attribution: %+v", att)
	}
	// ...but it still lands in the slow log, flagged.
	recs := m.SlowQueries()
	if len(recs) != 1 || !recs[0].Failed {
		t.Fatalf("failed slow query not logged: %+v", recs)
	}
}

func TestConcurrentNotes(t *testing.T) {
	m := NewMonitor(Config{Threshold: time.Nanosecond})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				q := m.Begin(uint64(i), "range", "p", 0)
				q.Note(core.HopForward)
				q.Note(core.HopDeliver)
				q.Note(core.HopScan)
				q.Finish(core.Stats{Delay: 2, Deliveries: 1}, 10, false)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := m.queries.Value(); got != 800 {
		t.Fatalf("queries counter %d, want 800", got)
	}
	m.SlowQueries()
	m.TailAttribution()
}
