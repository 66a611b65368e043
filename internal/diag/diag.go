// Package diag is Armada's query-diagnostics layer: per-query
// critical-path breakdowns assembled from the engine's trace stream, a
// cause classifier, and a bounded log of the run's slowest queries, each
// with its hops, which WriteChromeTrace renders as a Chrome trace.
//
// The paper's 2·log₂N delay bound is not watched here: it is a theorem,
// so the facade counts violations and Audit fails on any. This package
// says why a query was slow. Every finished query is timed stage by stage
// (descent forwards, seeded sends, deliveries, replica
// redirects, store scans), classified into a cause, and sampled into the
// tail attribution the workload report exposes. A query is ranked on its
// caller's clock: the queue wait the caller measured before starting it
// plus its service time. The log keeps the slowest queries of the run on
// that clock as structured, exportable Records.
//
// A Monitor is attached per network and must be cheap: the per-event cost
// is one clock read, two adds and one write into a fixed hop buffer on the
// query's own (pooled) collector; the buffer is copied out only for a query
// that enters the log. A network built without diagnostics never
// constructs a Query at all, so the disabled fast path is allocation-free.
package diag

import (
	"cmp"
	"container/heap"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"armada/internal/core"
	"armada/internal/kautz"
	"armada/internal/obs"
)

// Cause is the classifier's verdict on what a query's latency is
// attributed to.
type Cause uint8

const (
	// CauseUnknown means no cause's signal fired (no cause names a
	// descent's depth: none passed its planted test).
	CauseUnknown Cause = iota
	// CauseQueueWait: the operation waited longer for an executor than it
	// spent in service — the network was fine, the load was not.
	CauseQueueWait
	// CauseShortcutMiss: the query consulted issuer-side routing state — the
	// route cache, a session's tiles — that did not know every destination
	// (never learned, evicted, or renamed by churn), so it paid the descent
	// it expected to skip.
	CauseShortcutMiss
	// CauseHotRegion: delivery-side work (scans, seeds, deliveries,
	// redirects) took three quarters of the query's service time — its time
	// went to busy destination peers.
	CauseHotRegion
	numCauses
)

// String names the cause; the names key the tail-attribution map and the
// slow-query records.
func (c Cause) String() string {
	switch c {
	case CauseQueueWait:
		return "queue-wait"
	case CauseShortcutMiss:
		return "shortcut-miss"
	case CauseHotRegion:
		return "hot-region"
	default:
		return "unknown"
	}
}

// StageMs is one stage's share of a slow query's critical-path breakdown.
type StageMs struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
	Count int     `json:"count"`
}

// Hop is one trace event of a logged query: an overlay message or a
// completed scan, with the engine's fields (core.TraceFunc) and its time.
type Hop struct {
	Kind      string `json:"kind"`
	From      string `json:"from"`
	To        string `json:"to"`
	Depth     int    `json:"depth"`
	Remaining int    `json:"remaining"`
	// AtMs is the event's time relative to monitor start.
	AtMs float64 `json:"at_ms"`
}

// Record is one logged query's structured entry — everything needed to
// diagnose it offline: identity, timing, the classified cause, the
// per-stage breakdown and the hops.
type Record struct {
	QID    uint64 `json:"qid"`
	Kind   string `json:"kind"`
	Issuer string `json:"issuer,omitempty"`
	// AtMs is the query's completion time relative to monitor start.
	AtMs       float64 `json:"at_ms"`
	DurationMs float64 `json:"duration_ms"`
	// QueueWaitMs is the queue wait the caller measured — from the
	// query's arrival to its start (not part of DurationMs). The log ranks
	// a query by DurationMs + QueueWaitMs.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	Cause       string  `json:"cause"`
	// Delay and Bound are the realized hop delay and the instantaneous
	// 2·log₂N bound it is judged against.
	Delay     int     `json:"delay"`
	Bound     float64 `json:"bound,omitempty"`
	Messages  int     `json:"messages"`
	DestPeers int     `json:"dest_peers"`
	Failed    bool    `json:"failed,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Cursor is the page's continuation (the result's NextOffsetID); empty
	// when the query returned its last page or failed.
	Cursor string    `json:"cursor,omitempty"`
	Stages []StageMs `json:"stages,omitempty"`
	// Hops are the query's last HopCapacity trace events, oldest first;
	// HopsDropped counts the earlier ones.
	Hops        []Hop `json:"hops,omitempty"`
	HopsDropped int   `json:"hops_dropped,omitempty"`
}

// Attribution is the run's tail-latency attribution: of the queries slower
// than the p99, what fraction each cause accounts for. The fractions sum
// to 1 whenever TailQueries is nonzero.
type Attribution struct {
	// P99Ms is the p99 over every successful query of the time its caller
	// waited: queue wait plus service.
	P99Ms float64 `json:"p99_ms"`
	// Queries is how many successful queries were observed; TailQueries how
	// many of them were slower than the p99 (the attributed set).
	Queries     int64 `json:"queries"`
	TailQueries int   `json:"tail_queries"`
	// Causes maps cause name → fraction of tail queries attributed to it.
	Causes map[string]float64 `json:"causes"`
}

// HopCapacity is how many trace events a query keeps for its record: a
// lookup's descent at ten thousand peers (about 11 forwards, a delivery and
// a scan) several times over, or a narrow range's. A wider query's earlier
// events are counted, not kept, so its record shows where it ended: the
// engine pumps breadth-first and delivers and scans last.
const HopCapacity = 64

const (
	defaultLogCapacity = 256
	// maxTailSamples bounds the attribution sample store; past it the
	// store is decimated to every other sample and the keep stride doubles,
	// so memory stays bounded while the kept set remains an unbiased
	// uniform-stride sample of the run.
	maxTailSamples = 1 << 20
)

// tailSample is one finished query's contribution to tail attribution.
type tailSample struct {
	ms    float32
	cause Cause
}

// Monitor is one network's diagnostics state. All methods are safe for
// concurrent use.
type Monitor struct {
	logCap int
	start  time.Time
	// now returns the time since monitor start; tests substitute a
	// synthetic clock.
	now  func() time.Duration
	pool sync.Pool

	// queries counts finished queries observed.
	queries obs.Counter

	mu      sync.Mutex
	slowest slowHeap // the logCap slowest queries so far
	samples []tailSample
	stride  int64 // keep every stride-th sample (decimation)
	seen    int64 // successful queries seen (stride counter)
}

// slowHeap is a min-heap of records on client time (queue wait plus
// service): its root is the fastest of the slowest, the record a slower
// query displaces once the log is full.
type slowHeap []Record

func (r *Record) clientMs() float64 { return r.DurationMs + r.QueueWaitMs }

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].clientMs() < h[j].clientMs() }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(Record)) }
func (h *slowHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// NewMonitor builds a monitor whose log keeps the logCapacity slowest
// queries (0 or less: 256).
func NewMonitor(logCapacity int) *Monitor {
	if logCapacity <= 0 {
		logCapacity = defaultLogCapacity
	}
	m := &Monitor{logCap: logCapacity, start: time.Now(), stride: 1}
	m.now = func() time.Duration { return time.Since(m.start) }
	return m
}

// DescribeMetrics registers the monitor's query counter on reg.
func (m *Monitor) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("diag_queries_total", &m.queries)
}

// sinceNs is the monitor clock in nanoseconds.
func (m *Monitor) sinceNs() int64 { return int64(m.now()) }

// Query collects one query's breakdown and hops: the engine's trace stream
// feeds Note, the armada layer sets the classifier flags, and Finish folds
// everything into the monitor and recycles the collector. A query runs on
// one goroutine, so a Query needs no synchronization.
type Query struct {
	queryHead
	// hops is a ring of the query's last events: event i sits at
	// i % HopCapacity. Begin resets only the head, so a recycled buffer is
	// not cleared.
	hops [HopCapacity]Hop
}

// queryHead is everything of a Query but its hop buffer.
type queryHead struct {
	m       *Monitor
	qid     uint64
	kind    string
	issuer  string
	startNs int64
	// lastNs is the since-start time of the previous event; each event's
	// gap from it is attributed to that event's stage.
	lastNs    int64
	queueWait time.Duration
	stageNs   [core.NumHopKinds]int64
	stageN    [core.NumHopKinds]int32
	routeMiss bool
	nhops     int // events noted
}

// Begin starts collecting one query. queueWait is the queue wait the
// caller measured before starting the query (zero when unknown).
func (m *Monitor) Begin(qid uint64, kind, issuer string, queueWait time.Duration) *Query {
	q, _ := m.pool.Get().(*Query)
	if q == nil {
		q = new(Query)
	}
	now := m.sinceNs()
	q.queryHead = queryHead{m: m, qid: qid, kind: kind, issuer: issuer, queueWait: queueWait, startNs: now, lastNs: now}
	return q
}

// Note is the query's core.TraceFunc: it attributes the time since the
// previous event to the event's stage — the engine's hop kind — and buffers
// the event, over the oldest one once the buffer is full. The breakdown is an
// attribution of wall time to the event stream, not an exact per-message
// service time.
func (q *Query) Note(kind core.HopKind, from, to kautz.Str, depth, remaining int) {
	now := q.m.sinceNs()
	if dt := now - q.lastNs; dt > 0 {
		q.stageNs[kind] += dt
	}
	q.lastNs = now
	q.stageN[kind]++
	q.hops[q.nhops%len(q.hops)] = Hop{Kind: kind.String(), From: string(from), To: string(to), Depth: depth, Remaining: remaining, AtMs: float64(now) / 1e6}
	q.nhops++
}

// MarkShortcutMiss records that the query descended although it consulted
// issuer-side routing state.
func (q *Query) MarkShortcutMiss() { q.routeMiss = true }

// Finish completes the query with its cost stats, the instantaneous
// 2·log₂N bound they are judged against (0 when unknown), its page cursor
// and its error: classify, sample, log when among the slowest — the hops
// are copied out then, and only then — recycle. A failed query (zero
// stats) is logged like any other but excluded from tail attribution — its
// stats are not comparable.
func (q *Query) Finish(s core.Stats, bound float64, cursor string, err error) {
	m := q.m
	endNs := m.sinceNs()
	durNs := max(endNs-q.startNs, 0)
	m.queries.Inc()
	cause := q.classify(durNs)
	durMs := float64(durNs) / 1e6
	clientMs := durMs + float64(q.queueWait)/1e6

	m.mu.Lock()
	if err == nil {
		m.noteSampleLocked(clientMs, cause)
	}
	if len(m.slowest) < m.logCap {
		heap.Push(&m.slowest, q.record(s, bound, cursor, err, durMs, cause, endNs))
	} else if clientMs > m.slowest[0].clientMs() {
		m.slowest[0] = q.record(s, bound, cursor, err, durMs, cause, endNs)
		heap.Fix(&m.slowest, 0)
	}
	m.mu.Unlock()
	q.m = nil
	m.pool.Put(q)
}

// classify attributes the query's latency to a cause, most specific signal
// first, then hot-region when the delivery-side stages hold three quarters
// of the service time durNs — not merely the most: one scan costs a few
// forwards, so a plain query issued a few hops from its owner, or by it,
// spends most of its time there. On TestPlantedCauses' hot-region row, under
// -race and on a loaded host too, the controls' share stays ≤ 0.54 at the
// 95th percentile and the planted queries' ≥ 0.98 at the 5th.
func (q *Query) classify(durNs int64) Cause {
	if q.queueWait > 0 && int64(q.queueWait) > durNs {
		return CauseQueueWait
	}
	if q.routeMiss && q.stageN[core.HopForward] > 0 {
		return CauseShortcutMiss
	}
	var delivery int64
	for _, ns := range q.stageNs[core.HopForward+1:] {
		delivery += ns
	}
	if delivery > 0 && 4*delivery >= 3*durNs {
		return CauseHotRegion
	}
	return CauseUnknown
}

// noteSampleLocked records one successful query's client time into the
// tail attribution store. The caller holds m.mu.
func (m *Monitor) noteSampleLocked(clientMs float64, cause Cause) {
	if m.seen%m.stride == 0 {
		m.samples = append(m.samples, tailSample{ms: float32(clientMs), cause: cause})
		if len(m.samples) >= maxTailSamples {
			kept := m.samples[:0]
			for i := 0; i < len(m.samples); i += 2 {
				kept = append(kept, m.samples[i])
			}
			m.samples = kept
			m.stride *= 2
		}
	}
	m.seen++
}

// record builds the query's log entry.
func (q *Query) record(s core.Stats, bound float64, cursor string, err error, durMs float64, cause Cause, endNs int64) Record {
	rec := Record{
		QID:         q.qid,
		Kind:        q.kind,
		Issuer:      q.issuer,
		AtMs:        float64(endNs) / 1e6,
		DurationMs:  durMs,
		QueueWaitMs: float64(q.queueWait) / 1e6,
		Cause:       cause.String(),
		Delay:       s.Delay,
		Bound:       bound,
		Messages:    s.Messages,
		DestPeers:   s.DestPeers,
		Failed:      err != nil,
		Cursor:      cursor,
		HopsDropped: max(q.nhops-len(q.hops), 0),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	for k, n := range q.stageN {
		if n == 0 {
			continue
		}
		rec.Stages = append(rec.Stages, StageMs{
			Stage: core.HopKind(k).String(),
			Ms:    float64(q.stageNs[k]) / 1e6,
			Count: int(n),
		})
	}
	kept := min(q.nhops, len(q.hops))
	oldest := (q.nhops - kept) % len(q.hops)
	rec.Hops = append(append(make([]Hop, 0, kept), q.hops[oldest:kept]...), q.hops[:oldest]...)
	return rec
}

// SlowQueries returns the log: the run's slowest queries on the client
// clock, oldest (lowest query ID) first.
func (m *Monitor) SlowQueries() []Record {
	m.mu.Lock()
	out := slices.Clone(m.slowest)
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.QID, b.QID) })
	return out
}

// TailAttribution computes the run's tail attribution: the p99 over every
// successful query's client time and, for the queries slower than it, the
// fraction attributed to each cause.
func (m *Monitor) TailAttribution() Attribution {
	m.mu.Lock()
	samples := append([]tailSample(nil), m.samples...)
	seen := m.seen
	m.mu.Unlock()
	att := Attribution{Queries: seen, Causes: map[string]float64{}}
	if len(samples) == 0 {
		return att
	}
	sorted := make([]float64, len(samples))
	for i, s := range samples {
		sorted[i] = float64(s.ms)
	}
	sort.Float64s(sorted)
	p99 := sorted[(99*(len(sorted)-1)+50)/100]
	att.P99Ms = p99
	var counts [numCauses]int
	tail := 0
	for _, s := range samples {
		if float64(s.ms) > p99 {
			counts[s.cause]++
			tail++
		}
	}
	if tail == 0 {
		// Nearest-rank p99 ties the maximum (small runs, discrete
		// durations): widen to >= so the tail set is never empty.
		for _, s := range samples {
			if float64(s.ms) >= p99 {
				counts[s.cause]++
				tail++
			}
		}
	}
	att.TailQueries = tail
	for c := Cause(0); c < numCauses; c++ {
		if counts[c] > 0 {
			att.Causes[c.String()] = float64(counts[c]) / float64(tail)
		}
	}
	return att
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds since monitor start
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args"`
}

// WriteChromeTrace writes the log as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto: each
// record an async "b"/"e" span keyed by its query ID (the end carries
// delay, messages and any error), its hops "hop" instants, and a page cut
// a "page-cut" instant carrying the cursor.
func (m *Monitor) WriteChromeTrace(w io.Writer) error {
	out := []chromeEvent{}
	for _, r := range m.SlowQueries() {
		event := func(name, cat, ph string, ms float64, args map[string]any) chromeEvent {
			args["qid"] = r.QID
			ev := chromeEvent{Name: name, Cat: cat, Phase: ph, TS: int64(math.Round(ms * 1e3)), PID: 1, TID: 1, Args: args}
			if ph == "i" {
				ev.Scope = "t"
			} else {
				ev.ID = strconv.FormatUint(r.QID, 10)
			}
			return ev
		}
		out = append(out, event("query", "query", "b", r.AtMs-r.DurationMs, map[string]any{"from": r.Issuer, "query_kind": r.Kind}))
		for _, h := range r.Hops {
			out = append(out, event(h.Kind, "hop", "i", h.AtMs, map[string]any{"from": h.From, "to": h.To, "depth": h.Depth, "remaining": h.Remaining}))
		}
		if r.Cursor != "" {
			out = append(out, event("page-cut", "query", "i", r.AtMs, map[string]any{"cursor": r.Cursor}))
		}
		end := map[string]any{"delay": r.Delay, "messages": r.Messages}
		if r.Error != "" {
			end["error"] = r.Error
		}
		if r.HopsDropped > 0 {
			end["hops_dropped"] = r.HopsDropped
		}
		out = append(out, event("query", "query", "e", r.AtMs, end))
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}
