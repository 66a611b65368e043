// Package obs is Armada's observability substrate: a process-local metrics
// registry (counters, gauges, bounded-bucket histograms — all lock-free
// atomic updates, allocation-free on the hot path) and a query-lifecycle
// flight recorder (recorder.go). Components own their instruments and
// register them by name; the registry is only the directory read by
// exporters (the Prometheus text endpoint, expvar, the workload report's
// metric deltas), so registration cost is paid once at construction and
// never on an update.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metric is anything the registry can hold. The interface is closed: the
// implementations in this package are the full set.
type Metric interface {
	metricKind() string
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; updates are a single atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative to keep the counter monotonic).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (*Counter) metricKind() string { return "counter" }

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (*Gauge) metricKind() string { return "gauge" }

// GaugeFunc is a gauge computed at read time — for values already
// maintained elsewhere (e.g. the live peer count). The function must be
// safe to call concurrently with anything.
type GaugeFunc func() int64

func (GaugeFunc) metricKind() string { return "gauge" }

// Histogram is a fixed-bucket histogram with atomic, allocation-free
// observation: one linear scan of the (small, immutable) bound slice, one
// atomic bucket increment, one atomic count increment and a CAS loop for
// the float sum. Create with NewHistogram.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; bucket i counts v <= bounds[i]
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. An implicit +Inf bucket is always appended. It panics on
// unsorted or empty bounds (a construction-time bug, never load-dependent).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the bucket upper bounds and the cumulative count at or
// below each (Prometheus le semantics), excluding the implicit +Inf bucket
// whose cumulative count is Count.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = h.bounds
	cumulative = make([]int64, len(h.bounds))
	var c int64
	for i := range h.bounds {
		c += h.buckets[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

func (*Histogram) metricKind() string { return "histogram" }

// Registry is a named directory of metrics. Registration locks; reads
// (CounterValues, WritePrometheus) lock only the directory, not updates.
type Registry struct {
	mu    sync.Mutex
	named map[string]Metric
	order []string // registration order, for stable export
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{named: make(map[string]Metric)}
}

// MustRegister adds a metric under name, panicking on a duplicate name or
// nil metric — both construction-time bugs.
func (r *Registry) MustRegister(name string, m Metric) {
	if m == nil {
		panic("obs: nil metric " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.named[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.named[name] = m
	r.order = append(r.order, name)
}

// snapshot copies the directory under the lock so exporters read metric
// values without holding it.
func (r *Registry) snapshot() (names []string, named map[string]Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names = append([]string(nil), r.order...)
	named = make(map[string]Metric, len(r.named))
	for k, v := range r.named {
		named[k] = v
	}
	return names, named
}

// CounterValues returns every monotonic value in the registry: counters,
// histogram observation counts (<name>_count) and cumulative bucket counts
// (<name>_le_<bound>, plus <name>_le_inf). Gauges are excluded, so any two
// snapshots may be subtracted to get an interval delta.
func (r *Registry) CounterValues() map[string]int64 {
	names, named := r.snapshot()
	out := make(map[string]int64, len(names))
	for _, name := range names {
		switch m := named[name].(type) {
		case *Counter:
			out[name] = m.Value()
		case *Histogram:
			out[name+"_count"] = m.Count()
			bounds, cum := m.Buckets()
			for i, b := range bounds {
				out[name+"_le_"+formatBound(b)] = cum[i]
			}
			out[name+"_le_inf"] = m.Count()
		}
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), metrics in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names, named := r.snapshot()
	for _, name := range names {
		m := named[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.metricKind()); err != nil {
			return err
		}
		var err error
		switch m := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s %d\n", name, m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s %d\n", name, m.Value())
		case GaugeFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", name, m())
		case *Histogram:
			bounds, cum := m.Buckets()
			for i, b := range bounds {
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum[i]); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, m.Count()); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(m.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", name, m.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatBound renders a bucket bound as a metric-name suffix: "0.5" → "0_5"
// so the flattened CounterValues keys stay identifier-shaped.
func formatBound(f float64) string {
	s := formatFloat(f)
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '.':
			out = append(out, '_')
		case '+':
			// skip
		case '-':
			out = append(out, 'm')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
