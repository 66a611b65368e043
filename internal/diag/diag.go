// Package diag is Armada's query-diagnostics layer: per-query
// critical-path breakdowns assembled from the engine's trace stream, a
// cause classifier for slow queries, a bounded slow-query log with an
// adaptive threshold, and a multi-window SLO burn-rate monitor over the
// paper's 2·log₂N delay bound.
//
// The paper's delay-bound conformance counter says *that* the tail moved;
// this package says *why*. Every finished query is timed stage by stage
// (descent forwards, seeded sends, deliveries, replica
// redirects, store scans — plus the dispatcher queue wait the workload
// layer threads in), classified into a cause, and sampled into the tail
// attribution the workload report exposes. Queries slower than the
// threshold — fixed, or an EWMA of the observed p99 — additionally land in
// a bounded ring of structured, exportable Records.
//
// A Monitor is attached per network and must be cheap: the per-event cost
// is one clock read and two adds on the query's own collector, and a
// network built without diagnostics never constructs a Query at all, so
// the disabled fast path is allocation-free.
package diag

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"armada/internal/core"
	"armada/internal/obs"
)

// Cause is the classifier's verdict on what a query's latency is
// attributed to.
type Cause uint8

const (
	// CauseUnknown means the classifier had nothing to go on (a query that
	// produced no trace events at all).
	CauseUnknown Cause = iota
	// CauseQueueWait: the operation spent longer in the dispatcher queue
	// than in service — the network was fine, the load was not.
	CauseQueueWait
	// CauseSplitInFlight: a load-control split or migration overlapped the
	// query, so it raced a topology mutation for the write lock.
	CauseSplitInFlight
	// CauseShortcutMiss: the query consulted issuer-side routing state — the
	// route cache, a session's tiles — that did not know every destination
	// (never learned, evicted, or renamed by churn), so it paid the descent
	// it expected to skip.
	CauseShortcutMiss
	// CauseReplicaRedirect: redirected deliveries dominated the query's
	// critical path (the extra hop to the serving replica).
	CauseReplicaRedirect
	// CauseHotRegion: delivery-side work (scans, seeds, deliveries)
	// dominated — the query's time went to busy destination peers.
	CauseHotRegion
	// CauseDeepDescent: the descent itself was unusually deep — realized
	// hop delay near the bound, or forwarding dominating the breakdown.
	CauseDeepDescent
	numCauses
)

// String names the cause; the names key the tail-attribution map and the
// slow-query records.
func (c Cause) String() string {
	switch c {
	case CauseQueueWait:
		return "queue-wait"
	case CauseSplitInFlight:
		return "split-in-flight"
	case CauseShortcutMiss:
		return "shortcut-miss"
	case CauseReplicaRedirect:
		return "replica-redirect"
	case CauseHotRegion:
		return "hot-region"
	case CauseDeepDescent:
		return "deep-descent"
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

// Record is one slow query's structured log entry — everything needed to
// diagnose it offline: identity, timing, the classified cause and the
// per-stage breakdown.
type Record struct {
	QID    uint64 `json:"qid"`
	Kind   string `json:"kind"`
	Issuer string `json:"issuer,omitempty"`
	// AtMs is the query's completion time relative to monitor start.
	AtMs       float64 `json:"at_ms"`
	DurationMs float64 `json:"duration_ms"`
	// QueueWaitMs is the dispatcher queue wait the workload layer measured
	// before the query began (not part of DurationMs).
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	// ThresholdMs is the slow threshold in force when the query was logged.
	ThresholdMs float64 `json:"threshold_ms"`
	Cause       string  `json:"cause"`
	// Delay and Bound are the realized hop delay and the instantaneous
	// 2·log₂N bound it is judged against.
	Delay     int       `json:"delay"`
	Bound     float64   `json:"bound,omitempty"`
	Messages  int       `json:"messages"`
	DestPeers int       `json:"dest_peers"`
	Failed    bool      `json:"failed,omitempty"`
	Stages    []StageMs `json:"stages,omitempty"`
}

// Attribution is the run's tail-latency attribution: of the queries slower
// than the p99, what fraction each cause accounts for. The fractions sum
// to 1 whenever TailQueries is nonzero.
type Attribution struct {
	// P99Ms is the p99 service duration over every successful query.
	P99Ms float64 `json:"p99_ms"`
	// Queries is how many successful queries were observed; TailQueries how
	// many of them were slower than the p99 (the attributed set).
	Queries     int64 `json:"queries"`
	TailQueries int   `json:"tail_queries"`
	// Causes maps cause name → fraction of tail queries attributed to it.
	Causes map[string]float64 `json:"causes"`
}

// Config tunes a Monitor. Zero values take the noted defaults.
type Config struct {
	// LogCapacity bounds the slow-query ring (default 256 records).
	LogCapacity int
	// Threshold fixes the slow-query threshold. Zero means adaptive: an
	// EWMA of the p99 service duration, folded in per 128-query batch —
	// nothing is considered slow until the first batch completes.
	Threshold time.Duration
	// Objective is the SLO's good fraction over the delay bound (default
	// 0.999: at most one query in a thousand may reach 2·log₂N hops).
	Objective float64
}

const (
	defaultLogCapacity = 256
	defaultObjective   = 0.999
	// batchSize queries are pooled before each adaptive-threshold p99 is
	// computed and folded into the EWMA.
	batchSize = 128
	// batchAlpha is the EWMA weight of each new batch p99.
	batchAlpha = 0.25
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
	cfg   Config
	start time.Time
	// now returns the time since monitor start; tests substitute a
	// synthetic clock.
	now  func() time.Duration
	slo  *SLO
	pool sync.Pool

	// queries counts finished queries observed; slow the subset past the
	// threshold at their completion.
	queries obs.Counter
	slow    obs.Counter

	// lastActionNs is 1 + the since-start nanosecond of the most recent
	// load-control action (0 = none yet); Finish checks overlap against it.
	lastActionNs atomic.Int64

	mu       sync.Mutex
	ring     []Record // slow-query ring, ringNext = next write slot
	ringNext int
	batch    []float64 // current adaptive-threshold batch (service ms)
	p99Ms    float64   // EWMA of batch p99s; 0 until the first batch
	samples  []tailSample
	stride   int64 // keep every stride-th sample (decimation)
	seen     int64 // successful queries seen (stride counter)
}

// NewMonitor builds a monitor with the config's defaults filled.
func NewMonitor(cfg Config) *Monitor {
	if cfg.LogCapacity <= 0 {
		cfg.LogCapacity = defaultLogCapacity
	}
	if cfg.Objective == 0 {
		cfg.Objective = defaultObjective
	}
	m := &Monitor{cfg: cfg, start: time.Now(), stride: 1}
	m.now = func() time.Duration { return time.Since(m.start) }
	m.slo = newSLO(cfg.Objective, func() time.Duration { return m.now() })
	m.ring = make([]Record, 0, cfg.LogCapacity)
	m.batch = make([]float64, 0, batchSize)
	return m
}

// DescribeMetrics registers the monitor's instruments on reg: query and
// slow-query counters, the live threshold, and the SLO burn-rate gauges.
func (m *Monitor) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("diag_queries_total", &m.queries)
	reg.MustRegister("diag_slow_queries_total", &m.slow)
	reg.MustRegister("diag_slow_threshold_us", obs.GaugeFunc(func() int64 {
		m.mu.Lock()
		thr := m.thresholdMsLocked()
		m.mu.Unlock()
		return int64(thr * 1000)
	}))
	reg.MustRegister("slo_fast_burn_rate_milli", obs.GaugeFunc(func() int64 {
		return int64(m.slo.Report().FastBurnRate * 1000)
	}))
	reg.MustRegister("slo_slow_burn_rate_milli", obs.GaugeFunc(func() int64 {
		return int64(m.slo.Report().SlowBurnRate * 1000)
	}))
}

// sinceNs is the monitor clock in nanoseconds.
func (m *Monitor) sinceNs() int64 { return int64(m.now()) }

// NoteControlAction records that a load-control split or migration just
// completed; queries overlapping it classify as split-in-flight.
func (m *Monitor) NoteControlAction() { m.lastActionNs.Store(m.sinceNs() + 1) }

// Query collects one query's breakdown: the engine's trace stream feeds
// Note, the armada layer sets the classifier flags, and Finish folds
// everything into the monitor and recycles the collector. A query runs on
// one goroutine, so a Query needs no synchronization.
type Query struct {
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
}

// Begin starts collecting one query. queueWait is the dispatcher queue
// wait the caller measured before starting the query (zero when unknown).
func (m *Monitor) Begin(qid uint64, kind, issuer string, queueWait time.Duration) *Query {
	q, _ := m.pool.Get().(*Query)
	if q == nil {
		q = new(Query)
	}
	now := m.sinceNs()
	*q = Query{m: m, qid: qid, kind: kind, issuer: issuer, queueWait: queueWait, startNs: now, lastNs: now}
	return q
}

// Note attributes the time since the previous event to the event's stage —
// the engine's hop kind. The breakdown is an attribution of wall time to
// the event stream, not an exact per-message service time.
func (q *Query) Note(stage core.HopKind) {
	now := q.m.sinceNs()
	if dt := now - q.lastNs; dt > 0 {
		q.stageNs[stage] += dt
	}
	q.lastNs = now
	q.stageN[stage]++
}

// MarkShortcutMiss records that the query descended although it consulted
// issuer-side routing state.
func (q *Query) MarkShortcutMiss() { q.routeMiss = true }

// Finish completes the query with its cost stats and the instantaneous
// 2·log₂N bound they are judged against (0 when unknown): classify, sample,
// log when slow, recycle. A failed query (zero stats) is logged when slow
// but excluded from tail attribution and the SLO — its stats are not
// comparable.
func (q *Query) Finish(s core.Stats, bound float64, failed bool) {
	m := q.m
	endNs := m.sinceNs()
	durNs := max(endNs-q.startNs, 0)
	m.queries.Inc()
	cause := m.classify(q, s, bound, durNs)
	if !failed {
		m.slo.Observe(bound > 0 && float64(s.Delay) >= bound)
	}
	durMs := float64(durNs) / 1e6

	m.mu.Lock()
	thr := m.thresholdMsLocked()
	slow := thr > 0 && durMs >= thr
	if !failed {
		m.noteSampleLocked(durMs, cause)
	}
	if slow {
		m.appendRecordLocked(q, s, bound, failed, durMs, thr, cause, endNs)
	}
	m.mu.Unlock()
	if slow {
		m.slow.Inc()
	}
	q.m = nil
	m.pool.Put(q)
}

// classify attributes the query's latency to a cause, most specific signal
// first, falling back to whichever stage dominated the breakdown.
func (m *Monitor) classify(q *Query, s core.Stats, bound float64, durNs int64) Cause {
	if q.queueWait > 0 && int64(q.queueWait) > durNs {
		return CauseQueueWait
	}
	if a := m.lastActionNs.Load(); a > 0 && a-1 >= q.startNs {
		return CauseSplitInFlight
	}
	if q.routeMiss && q.stageN[core.HopForward] > 0 {
		return CauseShortcutMiss
	}
	if bound > 0 && float64(s.Delay) >= 0.75*bound {
		// The paper's average is log₂N — half the bound. Three quarters of
		// the way to the bound is a descent well past typical depth.
		return CauseDeepDescent
	}
	// Fall back to the dominant stage of the breakdown.
	var (
		best          core.HopKind
		bestNs, total int64
		events        int32
	)
	for k, ns := range q.stageNs {
		total += ns
		events += q.stageN[k]
		if ns > bestNs {
			best, bestNs = core.HopKind(k), ns
		}
	}
	if total > 0 {
		switch best {
		case core.HopForward:
			return CauseDeepDescent
		case core.HopRedirect:
			return CauseReplicaRedirect
		default:
			return CauseHotRegion
		}
	}
	// Events but no measurable time (sub-resolution queries): count them.
	switch {
	case events == 0:
		return CauseUnknown
	case q.stageN[core.HopForward]*2 >= events:
		return CauseDeepDescent
	default:
		return CauseHotRegion
	}
}

// thresholdMsLocked is the slow threshold currently in force in
// milliseconds (0 = none yet). The caller holds m.mu.
func (m *Monitor) thresholdMsLocked() float64 {
	if m.cfg.Threshold > 0 {
		return float64(m.cfg.Threshold) / 1e6
	}
	return m.p99Ms
}

// ThresholdMs reports the slow threshold currently in force (0 = the
// adaptive threshold has not seen its first batch yet).
func (m *Monitor) ThresholdMs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.thresholdMsLocked()
}

// noteSampleLocked records one successful query's duration into the tail
// attribution store and the adaptive-threshold batch. The caller holds
// m.mu.
func (m *Monitor) noteSampleLocked(durMs float64, cause Cause) {
	if m.seen%m.stride == 0 {
		m.samples = append(m.samples, tailSample{ms: float32(durMs), cause: cause})
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

	if m.cfg.Threshold > 0 {
		return // fixed threshold: no batch bookkeeping needed
	}
	m.batch = append(m.batch, durMs)
	if len(m.batch) < batchSize {
		return
	}
	sort.Float64s(m.batch)
	p99 := m.batch[(99*(len(m.batch)-1)+50)/100]
	if m.p99Ms == 0 {
		m.p99Ms = p99
	} else {
		m.p99Ms += batchAlpha * (p99 - m.p99Ms)
	}
	m.batch = m.batch[:0]
}

// appendRecordLocked logs one slow query into the ring. The caller holds
// m.mu.
func (m *Monitor) appendRecordLocked(q *Query, s core.Stats, bound float64, failed bool, durMs, thrMs float64, cause Cause, endNs int64) {
	rec := Record{
		QID:         q.qid,
		Kind:        q.kind,
		Issuer:      q.issuer,
		AtMs:        float64(endNs) / 1e6,
		DurationMs:  durMs,
		QueueWaitMs: float64(q.queueWait) / 1e6,
		ThresholdMs: thrMs,
		Cause:       cause.String(),
		Delay:       s.Delay,
		Bound:       bound,
		Messages:    s.Messages,
		DestPeers:   s.DestPeers,
		Failed:      failed,
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
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, rec)
	} else {
		m.ring[m.ringNext] = rec
	}
	m.ringNext = (m.ringNext + 1) % cap(m.ring)
}

// SlowQueries returns the retained slow-query records, oldest first.
func (m *Monitor) SlowQueries() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.ring))
	if len(m.ring) == cap(m.ring) {
		out = append(out, m.ring[m.ringNext:]...)
		out = append(out, m.ring[:m.ringNext]...)
	} else {
		out = append(out, m.ring...)
	}
	return out
}

// TailAttribution computes the run's tail attribution: the p99 over every
// successful query's service duration and, for the queries slower than it,
// the fraction attributed to each cause.
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

// SLOReport returns the burn-rate monitor's current state.
func (m *Monitor) SLOReport() SLOReport { return m.slo.Report() }
