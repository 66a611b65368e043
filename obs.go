package armada

import (
	"errors"
	"io"
	"math"
	"runtime"
	"sync/atomic"

	"armada/internal/core"
	"armada/internal/diag"
	"armada/internal/kautz"
	"armada/internal/obs"
)

// ErrNoRecorder is returned by WriteFlightTrace on a network built without
// WithFlightRecorder.
var ErrNoRecorder = errors.New("armada: network built without WithFlightRecorder")

// netObs bundles the network's observability state: the metrics registry
// every component registers into, the optional flight recorder, and the
// delay-bound conformance instruments.
type netObs struct {
	reg *obs.Registry
	// flight is the query-lifecycle flight recorder; nil without
	// WithFlightRecorder (queries then skip all event construction).
	flight *obs.Recorder
	// diag is the query-diagnostics monitor; nil without WithDiagnostics
	// (queries then skip all per-query collection).
	diag *diag.Monitor
	// delayRatio observes each query's realized Delay divided by the
	// instantaneous 2·log₂N bound; delayViol counts queries at or above
	// the bound (the paper's theorem says every one stays strictly below).
	delayRatio *obs.Histogram
	delayViol  obs.Counter
	// qseq issues flight-recorder query IDs.
	qseq atomic.Uint64
}

// initObs builds the network's registry, registers every component's
// instruments on it and, when configured, attaches the flight recorder.
// Called once from NewNetwork, after the engine and caches exist and
// before any traffic.
func (n *Network) initObs(cfg config) {
	o := &n.obs
	o.reg = obs.NewRegistry()
	n.eng.Metrics().Describe(o.reg)
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
		o.diag = diag.NewMonitor(diag.Config{
			LogCapacity: cfg.diagnostics.SlowLogCapacity,
			Threshold:   cfg.diagnostics.SlowThreshold,
			Objective:   cfg.diagnostics.Objective,
		})
		o.diag.DescribeMetrics(o.reg)
	}
	if cfg.flightRecorder > 0 {
		o.flight = obs.NewRecorder(cfg.flightRecorder)
		o.reg.MustRegister("flight_recorder_events_total", o.flight.TotalCounter())
		// Repairs run under the topology write lock; Record is a short
		// mutex-guarded ring append, safe there.
		n.net.SetRepairHook(func(owner kautz.Str, copied int) {
			o.flight.Record(obs.Event{Kind: obs.EvRepair, From: string(owner), V1: int64(copied)})
		})
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
// caller's WithTrace sink, the flight recorder, the diagnostics collector —
// behind one value. run builds it once per query and hands it to exec; the
// engine feeds it every hop and completed scan
// through the single QueryConfig.Trace callback; finish closes it with the
// query's Stats. When nobody watches, run leaves it nil: every method is
// nil-safe, so the unobserved path pays nil checks and allocates nothing.
type queryObs struct {
	qid  uint64        // tags recorder events and slow-query records; 0 with only a sink
	sink func(Hop)     // Query.Trace
	rec  *obs.Recorder // flight recorder
	dq   *diag.Query   // diagnostics collector
}

// observe opens the query's observer and reports the query's start to it;
// nil when the query has no trace sink and the network neither records nor
// diagnoses.
func (n *Network) observe(q Query, issuer string) *queryObs {
	rec, dm := n.obs.flight, n.obs.diag
	if q.Trace == nil && rec == nil && dm == nil {
		return nil
	}
	o := &queryObs{sink: q.Trace, rec: rec}
	if rec == nil && dm == nil {
		return o
	}
	o.qid = n.obs.qseq.Add(1)
	kind := q.kind().String()
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.EvQueryStart, QID: o.qid, From: issuer, Note: kind})
	}
	if dm != nil {
		o.dq = dm.Begin(o.qid, kind, issuer, q.QueueWait)
	}
	return o
}

// hopEvents maps the engine's message hop kinds to flight-recorder event
// kinds (diagnostics stages are the hop kinds themselves).
var hopEvents = [...]obs.EventKind{
	core.HopForward:  obs.EvDescentStep,
	core.HopDeliver:  obs.EvDeliver,
	core.HopRedirect: obs.EvReplicaRedirect,
	core.HopSeed:     obs.EvShortcutSeed,
}

// hop is the engine's trace callback. Diagnostics times every event; a
// completed scan is a stage of the breakdown but not an overlay message, so
// the recorder's hop log and the caller's sink never see it.
func (o *queryObs) hop(kind core.HopKind, from, to kautz.Str, depth, remaining int) {
	if o.dq != nil {
		o.dq.Note(kind)
	}
	if kind == core.HopScan {
		return
	}
	if o.rec != nil {
		o.rec.Record(obs.Event{Kind: hopEvents[kind], QID: o.qid, From: string(from), To: string(to), Depth: depth, Remaining: remaining})
	}
	if o.sink != nil {
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
	if o == nil {
		return
	}
	var stats Stats
	if err == nil {
		stats = res.Stats
	}
	if o.dq != nil {
		o.dq.Finish(stats, bound, err != nil)
	}
	if o.rec != nil {
		end := obs.Event{Kind: obs.EvQueryEnd, QID: o.qid, V1: int64(stats.Delay), V2: int64(stats.Messages)}
		if err != nil {
			end.Note = err.Error()
		} else if res.NextOffsetID != "" {
			o.rec.Record(obs.Event{Kind: obs.EvPageCut, QID: o.qid, Note: res.NextOffsetID})
		}
		o.rec.Record(end)
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

// FlightRecorderEnabled reports whether the network was built with
// WithFlightRecorder.
func (n *Network) FlightRecorderEnabled() bool { return n.obs.flight != nil }

// WriteFlightTrace writes the flight recorder's retained events as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto). It returns
// ErrNoRecorder on a network built without WithFlightRecorder.
func (n *Network) WriteFlightTrace(w io.Writer) error {
	if n.obs.flight == nil {
		return ErrNoRecorder
	}
	return n.obs.flight.WriteChromeTrace(w)
}
