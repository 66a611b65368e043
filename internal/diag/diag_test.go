package diag

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"armada/internal/core"
	"armada/internal/kautz"
)

// clockMonitor builds a monitor on a synthetic clock the test advances.
func clockMonitor(logCapacity int) (*Monitor, *time.Duration) {
	m := NewMonitor(logCapacity)
	cur := new(time.Duration)
	m.now = func() time.Duration { return *cur }
	return m, cur
}

// note feeds q one event of kind between two fixed peers.
func note(q *Query, kind core.HopKind) { q.Note(kind, "a", "b", 1, 0) }

func finishAfter(m *Monitor, cur *time.Duration, qid uint64, wait, d time.Duration, s core.Stats, bound float64) {
	q := m.Begin(qid, "range", "p", wait)
	*cur += d
	q.Finish(s, bound, "", nil)
}

func TestClassifierPriorities(t *testing.T) {
	m, cur := clockMonitor(0)

	// Queue wait longer than service time wins over everything.
	q := m.Begin(1, "range", "p", 50*time.Millisecond)
	q.MarkShortcutMiss()
	note(q, core.HopForward)
	if c := q.classify(int64(10 * time.Millisecond)); c != CauseQueueWait {
		t.Fatalf("queue-wait case classified %v", c)
	}
	// ...a shorter one does not.
	q = m.Begin(2, "range", "p", time.Millisecond)
	note(q, core.HopForward)
	if c := q.classify(int64(10 * time.Millisecond)); c == CauseQueueWait {
		t.Fatalf("short wait classified queue-wait")
	}

	// Routing state consulted, and a descent all the same, is a shortcut
	// miss, whatever stage dominated.
	q = m.Begin(4, "lookup", "p", 0)
	q.MarkShortcutMiss()
	note(q, core.HopForward)
	*cur += 10 * time.Millisecond
	note(q, core.HopScan)
	if c := q.classify(0); c != CauseShortcutMiss {
		t.Fatalf("shortcut miss classified %v", c)
	}
	// ...but a seeded query is not one.
	q = m.Begin(5, "lookup", "p", 0)
	*cur += time.Millisecond
	note(q, core.HopSeed)
	if c := q.classify(0); c != CauseHotRegion {
		t.Fatalf("seeded query classified %v", c)
	}

	// Delivery-side time holding three quarters of the service time means
	// a hot region, redirects included...
	q = m.Begin(8, "range", "p", 0)
	*cur += time.Millisecond
	note(q, core.HopForward)
	*cur += 10 * time.Millisecond
	note(q, core.HopScan)
	if c := q.classify(int64(11 * time.Millisecond)); c != CauseHotRegion {
		t.Fatalf("scan-dominated query classified %v", c)
	}
	q = m.Begin(10, "lookup", "p", 0)
	*cur += 10 * time.Millisecond
	note(q, core.HopRedirect)
	if c := q.classify(int64(10 * time.Millisecond)); c != CauseHotRegion {
		t.Fatalf("redirect-dominated query classified %v", c)
	}
	q = m.Begin(14, "range", "p", 0)
	*cur += time.Millisecond
	note(q, core.HopForward)
	*cur += 3 * time.Millisecond
	note(q, core.HopScan)
	if c := q.classify(int64(4 * time.Millisecond)); c != CauseHotRegion {
		t.Fatalf("query at three quarters delivery-side time classified %v", c)
	}
	// ...while forward-dominated time names no cause.
	q = m.Begin(9, "range", "p", 0)
	*cur += 10 * time.Millisecond
	note(q, core.HopForward)
	*cur += time.Millisecond
	note(q, core.HopDeliver)
	if c := q.classify(int64(11 * time.Millisecond)); c != CauseUnknown {
		t.Fatalf("forward-dominated query classified %v", c)
	}
	// ...and so does delivery-side time that is merely the largest stage: a
	// query issued by its destination's owner, which forwards nothing, spent
	// half its time elsewhere.
	q = m.Begin(13, "range", "p", 0)
	*cur += time.Millisecond
	note(q, core.HopDeliver)
	*cur += time.Millisecond
	note(q, core.HopScan)
	if c := q.classify(int64(4 * time.Millisecond)); c != CauseUnknown {
		t.Fatalf("forward-free query at half delivery-side time classified %v", c)
	}

	// No events, or events with no measurable time: unknown.
	q = m.Begin(11, "lookup", "p", 0)
	if c := q.classify(0); c != CauseUnknown {
		t.Fatalf("event-free query classified %v", c)
	}
	q = m.Begin(12, "lookup", "p", 0)
	note(q, core.HopDeliver)
	if c := q.classify(0); c != CauseUnknown {
		t.Fatalf("timeless query classified %v", c)
	}
}

// TestFixedThresholdSlowLog: there is no threshold — a log with room keeps
// every query, each record carrying its stats and both halves of its client
// time.
func TestFixedThresholdSlowLog(t *testing.T) {
	m, cur := clockMonitor(4)
	finishAfter(m, cur, 1, 0, time.Millisecond, core.Stats{}, 0)
	finishAfter(m, cur, 2, 3*time.Millisecond, 10*time.Millisecond, core.Stats{Delay: 3, Messages: 7}, 0)
	recs := m.SlowQueries()
	if len(recs) != 2 {
		t.Fatalf("want both queries logged, got %d", len(recs))
	}
	r := recs[1]
	if r.QID != 2 || r.DurationMs < 9.999 || r.QueueWaitMs != 3 || r.Messages != 7 || r.Delay != 3 {
		t.Fatalf("bad record: %+v", r)
	}
	if m.queries.Value() != 2 {
		t.Fatalf("queries counter %d, want 2", m.queries.Value())
	}
}

// TestSlowRingWraps: a full log keeps the N slowest queries on the client
// clock — queue wait plus service — and returns them oldest first.
func TestSlowRingWraps(t *testing.T) {
	m, cur := clockMonitor(3)
	// Client times 5, 1, 9, 2, 7 ms (qid 3 all queue wait, qid 5 service
	// time): the slowest three are qids 1, 3 and 5.
	for i, c := range []struct{ wait, service time.Duration }{
		{0, 5 * time.Millisecond},
		{0, time.Millisecond},
		{8 * time.Millisecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
		{0, 7 * time.Millisecond},
	} {
		finishAfter(m, cur, uint64(i+1), c.wait, c.service, core.Stats{}, 0)
	}
	recs := m.SlowQueries()
	if len(recs) != 3 {
		t.Fatalf("want 3 retained records, got %d", len(recs))
	}
	for i, want := range []uint64{1, 3, 5} {
		if recs[i].QID != want {
			t.Fatalf("record %d has qid %d, want %d (the three slowest, oldest first)", i, recs[i].QID, want)
		}
	}
}

func TestTailAttributionFractionsCoverTail(t *testing.T) {
	m, cur := clockMonitor(0)
	for i := 0; i < 500; i++ {
		finishAfter(m, cur, 1, 0, time.Millisecond, core.Stats{Delay: 2}, 20)
	}
	// Tail (under 1% of the run): queries that queued 50 ms for a 1 ms
	// service, which a service-time ranking would not see.
	for i := 0; i < 4; i++ {
		finishAfter(m, cur, 1, 50*time.Millisecond, time.Millisecond, core.Stats{Delay: 2}, 20)
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
	if att.Causes["queue-wait"] != 1 {
		t.Fatalf("tail not attributed to queue wait: %v", att.Causes)
	}
	if att.P99Ms > 2 {
		t.Fatalf("p99 %v ms pulled up by the tail", att.P99Ms)
	}
}

func TestFailedQueriesExcludedFromAttribution(t *testing.T) {
	m, cur := clockMonitor(0)
	q := m.Begin(1, "range", "p", 0)
	*cur += 10 * time.Millisecond
	q.Finish(core.Stats{}, 0, "", errors.New("unreachable"))
	att := m.TailAttribution()
	if att.Queries != 0 || len(att.Causes) != 0 {
		t.Fatalf("failed query leaked into attribution: %+v", att)
	}
	// ...but it still lands in the log, flagged.
	recs := m.SlowQueries()
	if len(recs) != 1 || !recs[0].Failed || recs[0].Error != "unreachable" {
		t.Fatalf("failed slow query not logged with its error: %+v", recs)
	}
}

func TestConcurrentNotes(t *testing.T) {
	m := NewMonitor(64)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				q := m.Begin(uint64(i), "range", "p", 0)
				note(q, core.HopForward)
				note(q, core.HopDeliver)
				note(q, core.HopScan)
				q.Finish(core.Stats{Delay: 2, Deliveries: 1}, 10, "", nil)
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

// TestHopBufferKeepsLastEvents: a logged query's record holds its last
// HopCapacity events, oldest first, each with its fields and time, and counts
// the earlier ones — the buffer wraps more than once; its page cursor rides
// along.
func TestHopBufferKeepsLastEvents(t *testing.T) {
	m, cur := clockMonitor(4)
	q := m.Begin(1, "range", "p", 0)
	kinds := []core.HopKind{core.HopForward, core.HopDeliver, core.HopRedirect, core.HopSeed, core.HopScan}
	const events = 2*HopCapacity + 3
	for i := range events {
		*cur += time.Microsecond
		q.Note(kinds[i%len(kinds)], kautz.Str(fmt.Sprint("f", i)), kautz.Str(fmt.Sprint("t", i)), i%20, i%7)
	}
	q.Finish(core.Stats{}, 0, "cursor", nil)
	recs := m.SlowQueries()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	r := recs[0]
	if len(r.Hops) != HopCapacity || r.HopsDropped != events-HopCapacity || r.Cursor != "cursor" {
		t.Fatalf("record keeps %d hops, drops %d, cursor %q; want %d, %d, %q", len(r.Hops), r.HopsDropped, r.Cursor, HopCapacity, events-HopCapacity, "cursor")
	}
	for j, h := range r.Hops {
		i := r.HopsDropped + j
		want := Hop{Kind: kinds[i%len(kinds)].String(), From: fmt.Sprint("f", i), To: fmt.Sprint("t", i),
			Depth: i % 20, Remaining: i % 7, AtMs: float64(i+1) / 1e3}
		if math.Abs(h.AtMs-want.AtMs) > 1e-9 {
			t.Fatalf("hop %d at %v ms, want %v", i, h.AtMs, want.AtMs)
		}
		h.AtMs = want.AtMs
		if h != want {
			t.Fatalf("hop %d = %+v, want %+v", i, h, want)
		}
	}
	// A recycled collector starts empty.
	q = m.Begin(2, "lookup", "p", 0)
	note(q, core.HopDeliver)
	q.Finish(core.Stats{}, 0, "", nil)
	if r := m.SlowQueries()[1]; len(r.Hops) != 1 || r.HopsDropped != 0 || r.Cursor != "" {
		t.Fatalf("second record: %d hops, %d dropped, cursor %q", len(r.Hops), r.HopsDropped, r.Cursor)
	}
}

// TestChromeTraceFromLog: the log renders as one span per record — its
// begin and end under the record's ID, the end carrying delay, messages and
// any error — with the record's hops as instants between them and its page
// cut as one more.
func TestChromeTraceFromLog(t *testing.T) {
	m, cur := clockMonitor(4)
	q := m.Begin(1, "range", "p0", 0)
	*cur += time.Millisecond
	q.Note(core.HopForward, "p0", "p1", 1, 2)
	*cur += time.Millisecond
	q.Note(core.HopDeliver, "p1", "p1", 2, 0)
	q.Finish(core.Stats{Delay: 1, Messages: 2}, 10, "next", nil)
	q = m.Begin(2, "lookup", "p0", 0)
	*cur += time.Millisecond
	q.Finish(core.Stats{}, 0, "", errors.New("boom"))

	var sb strings.Builder
	if err := m.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	var got []string
	for _, e := range dump.TraceEvents {
		line := fmt.Sprintf("%s %s %s %d %s", e.Ph, e.Cat, e.Name, e.TS, e.ID)
		for _, k := range []string{"from", "to", "delay", "messages", "error", "cursor"} {
			if v, ok := e.Args[k]; ok {
				line += fmt.Sprintf(" %s=%v", k, v)
			}
		}
		got = append(got, line)
	}
	want := []string{
		"b query query 0 1 from=p0",
		"i hop forward 1000  from=p0 to=p1",
		"i hop deliver 2000  from=p1 to=p1",
		"i query page-cut 2000  cursor=next",
		"e query query 2000 1 delay=1 messages=2",
		"b query query 2000 2 from=p0",
		"e query query 3000 2 delay=0 messages=0 error=boom",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
