package armada

import (
	"io"
	"math"
	"runtime"
	"sync/atomic"

	"armada/internal/core"
	"armada/internal/diag"
	"armada/internal/kautz"
	"armada/internal/obs"
)

// netObs bundles the network's observability state: the metrics registry
// every component registers into, the optional diagnostics monitor, and
// the delay-bound conformance instruments.
type netObs struct {
	reg *obs.Registry
	// diag is the query-diagnostics monitor; nil without WithDiagnostics
	// (queries then skip all per-query collection).
	diag *diag.Monitor
	// delayRatio observes each query's realized Delay divided by the
	// instantaneous 2·log₂N bound; delayViol counts queries at or above
	// the bound (the paper's theorem says every one stays strictly below).
	delayRatio *obs.Histogram
	delayViol  obs.Counter
	// qseq issues diagnostics query IDs.
	qseq atomic.Uint64
}

// initObs builds the network's registry, registers every component's
// instruments on it and, when configured, attaches the diagnostics monitor.
// Called once from NewNetwork, after the engine and caches exist and
// before any traffic.
func (n *Network) initObs(cfg config) {
	o := &n.obs
	o.reg = obs.NewRegistry()
	n.eng.DescribeMetrics(o.reg)
	n.net.DescribeMetrics(o.reg)
	if n.routes != nil {
		n.routes.DescribeMetrics(o.reg)
	}
	o.delayRatio = obs.NewHistogram(0.25, 0.5, 0.75, 0.9, 1, 1.25, 1.5, 2)
	o.reg.MustRegister("query_delay_vs_bound", o.delayRatio)
	o.reg.MustRegister("delay_bound_violations", &o.delayViol)
	o.reg.MustRegister("peers", obs.GaugeFunc(func() int64 { return int64(n.Size()) }))
	o.reg.MustRegister("heap_alloc_bytes", obs.GaugeFunc(func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}))
	o.reg.MustRegister("heap_bytes_per_peer", obs.GaugeFunc(func() int64 {
		size := n.Size()
		if size == 0 {
			return 0
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc) / int64(size)
	}))
	if cfg.diagnostics != nil {
		o.diag = diag.NewMonitor(cfg.diagnostics.SlowLogCapacity)
		o.diag.DescribeMetrics(o.reg)
	}
}

// noteQuery samples one finished query against the paper's delay bound —
// fewer than 2·log₂N overlay hops for the instantaneous network size N —
// and returns the bound it judged against (0 when the network is too small
// to have one). The caller holds the read lock, so Size is exact for this
// query.
func (n *Network) noteQuery(s Stats) float64 {
	size := n.net.Size()
	if size < 2 {
		return 0
	}
	bound := 2 * math.Log2(float64(size))
	n.obs.delayRatio.Observe(float64(s.Delay) / bound)
	if float64(s.Delay) >= bound {
		n.obs.delayViol.Inc()
	}
	return bound
}

// queryObs is one query's observer: whoever watches this query — the
// caller's WithTrace sink, the diagnostics collector — behind one value.
// run builds it once per query and hands it to exec; the engine feeds it
// every hop and completed scan through the single QueryConfig.Trace
// callback; finish closes it with the query's outcome. When nobody watches,
// run leaves it nil: every method is nil-safe, so the unobserved path pays
// nil checks and allocates nothing.
type queryObs struct {
	sink func(Hop)   // Query.Trace
	dq   *diag.Query // diagnostics collector
}

// observe opens the query's observer and reports the query's start to it;
// nil when the query has no trace sink and the network does not diagnose.
func (n *Network) observe(q Query, issuer string) *queryObs {
	dm := n.obs.diag
	if q.Trace == nil && dm == nil {
		return nil
	}
	o := &queryObs{sink: q.Trace}
	if dm != nil {
		o.dq = dm.Begin(n.obs.qseq.Add(1), q.kind().String(), issuer, q.QueueWait)
	}
	return o
}

// hop is the engine's trace callback. Diagnostics times and keeps every
// event; a completed scan is a stage of the breakdown but not an overlay
// message, so the caller's sink never sees it.
func (o *queryObs) hop(kind core.HopKind, from, to kautz.Str, depth, remaining int) {
	if o.dq != nil {
		o.dq.Note(kind, from, to, depth, remaining)
	}
	if o.sink != nil && kind != core.HopScan {
		o.sink(Hop{From: string(from), To: string(to), Depth: depth, Remaining: remaining})
	}
}

// shortcutMiss notes that the query descended although issuer-side routing
// state — the route cache, a session's tiles — was there to consult.
func (o *queryObs) shortcutMiss() {
	if o != nil && o.dq != nil {
		o.dq.MarkShortcutMiss()
	}
}

// finish closes the observer with the query's outcome: res and the delay
// bound noteQuery judged it against, or err.
func (o *queryObs) finish(res *Result, bound float64, err error) {
	if o == nil || o.dq == nil {
		return
	}
	var (
		stats  Stats
		cursor string
	)
	if err == nil {
		stats, cursor = res.Stats, res.NextOffsetID
	}
	o.dq.Finish(stats, bound, cursor, err)
}

// MetricValues returns a snapshot of every monotonic metric the network
// maintains — counters plus histogram observation and cumulative bucket
// counts, keyed by metric name. Gauges are excluded, so the difference of
// two snapshots is a meaningful interval delta (the workload runner
// reports exactly that).
func (n *Network) MetricValues() map[string]int64 { return n.obs.reg.CounterValues() }

// WriteMetrics writes every registered metric — gauges included — in the
// Prometheus text exposition format. armada-load serves it at
// -metrics-addr /metrics.
func (n *Network) WriteMetrics(w io.Writer) error { return n.obs.reg.WritePrometheus(w) }
