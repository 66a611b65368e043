// Package obs is Armada's metrics substrate: a process-local registry of
// counters, gauges computed at read time and bounded-bucket histograms — all
// lock-free, allocation-free updates. Per-query records (hops, stages,
// causes) are internal/diag's. Components own their instruments and
// register them by name; the registry is only the directory read by
// exporters (the Prometheus text endpoint, expvar, the workload report's
// metric deltas), so registration cost is paid once at construction and
// never on an update.
//
// Every instrument is striped per P: it keeps cells whose words are a cache
// line apart, and an update writes the cell of the P its goroutine runs on,
// so concurrent queries on different Ps share no written line. Reads sum the
// cells; they are exact once the writers are done, and monotonic between
// two reads of one goroutine while they run.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	_ "unsafe" // for go:linkname
)

// cells is the number of stripes of every instrument, a power of two: P p
// updates cell p mod cells, so no two Ps share a cell while GOMAXPROCS ≤
// cells (beyond, shared cells stay exact: updates are atomic).
const cells = 8

// cell is one stripe: a word at the end of a 64-byte cache line's worth of
// padding, so the words of an array of cells are a line apart.
type cell struct {
	_ [7]uint64
	v atomic.Uint64
}

// procPin pins the goroutine to its P, which it then cannot leave, and
// returns the P's id; procUnpin releases it. sync.Pool stripes by P the same
// way; the runtime keeps both names for linkname on purpose (golang/go#67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Metric is anything the registry can hold. The interface is closed: the
// implementations in this package are the full set.
type Metric interface {
	metricKind() string
}

// Counter is a monotonically increasing counter, striped per P. The zero
// value is ready to use; an update is one atomic add to its P's cell.
type Counter struct{ cells [cells]cell }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be non-negative to keep the counter monotonic).
func (c *Counter) Add(d int64) {
	c.cells[procPin()&(cells-1)].v.Add(uint64(d))
	procUnpin()
}

// Value returns the current count: the sum of the cells.
func (c *Counter) Value() int64 {
	var n uint64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return int64(n)
}

func (*Counter) metricKind() string { return "counter" }

// GaugeFunc is a gauge computed at read time — for values already
// maintained elsewhere (e.g. the live peer count). The function must be
// safe to call concurrently with anything.
type GaugeFunc func() int64

func (GaugeFunc) metricKind() string { return "gauge" }

// Histogram is a fixed-bucket histogram with lock-free, allocation-free
// observation, striped per P: one linear scan of the (small, immutable)
// bound slice, then, in the P's cells, one atomic bucket increment and a CAS
// for the float sum that no other P contends. Create with NewHistogram.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; bucket i counts v <= bounds[i]
	buckets []Counter // one per bound, then the implicit +Inf bucket; Count is their total
	sum     [cells]cell
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
		buckets: make([]Counter, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	p := procPin() & (cells - 1)
	h.buckets[i].cells[p].v.Add(1)
	sum := &h.sum[p].v
	for old := sum.Load(); !sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)); {
		old = sum.Load()
	}
	procUnpin()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Value()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	var s float64
	for i := range h.sum {
		s += math.Float64frombits(h.sum[i].v.Load())
	}
	return s
}

// Buckets returns the bucket upper bounds and the cumulative count at or
// below each (Prometheus le semantics), excluding the implicit +Inf bucket
// whose cumulative count is Count.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	cumulative = make([]int64, len(h.bounds))
	var c int64
	for i := range h.bounds {
		c += h.buckets[i].Value()
		cumulative[i] = c
	}
	return h.bounds, cumulative
}

func (*Histogram) metricKind() string { return "histogram" }

// Registry is a named directory of metrics. Registration locks; reads
// (CounterValues, WritePrometheus) lock only the directory, not updates.
type Registry struct {
	mu      sync.Mutex
	entries []entry // registration order, for stable export; append-only
}

type entry struct {
	name string
	m    Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// MustRegister adds a metric under name, panicking on a duplicate name or
// nil metric — both construction-time bugs.
func (r *Registry) MustRegister(name string, m Metric) {
	if m == nil {
		panic("obs: nil metric " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slices.ContainsFunc(r.entries, func(e entry) bool { return e.name == name }) {
		panic("obs: duplicate metric " + name)
	}
	r.entries = append(r.entries, entry{name, m})
}

// snapshot returns the directory as registered so far. An entry never
// changes once appended, so exporters read it without the lock.
func (r *Registry) snapshot() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[:len(r.entries):len(r.entries)]
}

// CounterValues returns every monotonic value in the registry: counters,
// histogram observation counts (<name>_count) and cumulative bucket counts
// (<name>_le_<bound>, plus <name>_le_inf). Gauges are excluded, so any two
// snapshots may be subtracted to get an interval delta.
func (r *Registry) CounterValues() map[string]int64 {
	entries := r.snapshot()
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		switch m := e.m.(type) {
		case *Counter:
			out[e.name] = m.Value()
		case *Histogram:
			bounds, cum := m.Buckets() // before the count, so no bucket reads above it
			for i, b := range bounds {
				out[e.name+"_le_"+boundName.Replace(formatFloat(b))] = cum[i]
			}
			n := m.Count()
			out[e.name+"_count"], out[e.name+"_le_inf"] = n, n
		}
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), metrics in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	for _, e := range r.snapshot() {
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.m.metricKind())
		switch m := e.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %d\n", e.name, m.Value())
		case GaugeFunc:
			fmt.Fprintf(&b, "%s %d\n", e.name, m())
		case *Histogram:
			bounds, cum := m.Buckets()
			for i, bound := range bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", e.name, formatFloat(bound), cum[i])
			}
			fmt.Fprintf(&b, "%[1]s_bucket{le=\"+Inf\"} %[2]d\n%[1]s_sum %[3]s\n%[1]s_count %[2]d\n", e.name, m.Count(), formatFloat(m.Sum()))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// boundName renders a bucket bound as a metric-name suffix: "0.5" → "0_5"
// so the flattened CounterValues keys stay identifier-shaped.
var boundName = strings.NewReplacer(".", "_", "+", "", "-", "m")
