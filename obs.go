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

// hopSink is the caller's WithTrace function as the engine's tracer. It
// hands on every overlay message; a completed scan (HopScan) is a stage of
// the diagnostics' breakdown but not an overlay message, so it never sees
// one.
type hopSink func(Hop)

// Hop is hopSink's core.Tracer method.
func (f hopSink) Hop(kind core.HopKind, from, to kautz.Str, depth, remaining int) {
	if kind != core.HopScan {
		f(Hop{From: string(from), To: string(to), Depth: depth, Remaining: remaining})
	}
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
