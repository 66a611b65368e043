package obs

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.MustRegister("ops_total", &c)
	reg.MustRegister("peers", GaugeFunc(func() int64 { return 42 }))

	c.Inc()
	c.Add(4)

	// The text exposition carries every kind; CounterValues must exclude
	// gauges, so deltas of its snapshots stay meaningful.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops_total 5\n", "peers 42\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	cv := reg.CounterValues()
	if _, ok := cv["peers"]; ok {
		t.Errorf("CounterValues includes gauge func: %v", cv)
	}
	if cv["ops_total"] != 5 {
		t.Errorf("CounterValues counter = %d, want 5", cv["ops_total"])
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Cumulative: ≤1 → {0.5, 1}; ≤2 → +{1.5}; ≤4 → +{3}; +Inf → +{100}.
	want := []int64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("x", &Counter{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate MustRegister did not panic")
		}
	}()
	reg.MustRegister("x", &Counter{})
}

// TestRegistryConcurrent is the -race stress test: concurrent writers on
// every instrument kind while readers snapshot and export continuously.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	h := NewHistogram(1, 10, 100)
	reg.MustRegister("c_total", &c)
	reg.MustRegister("g", GaugeFunc(c.Value))
	reg.MustRegister("h", h)

	const (
		writers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(float64(i % 128))
			}
		}(w)
	}
	// Readers run until the writers finish.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = reg.CounterValues()
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	total := int64(writers * perW)
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	// The CAS-maintained sum must be exact: every observed value is an
	// integer small enough that float64 addition is lossless.
	var wantSum float64
	for i := 0; i < perW; i++ {
		wantSum += float64(i % 128)
	}
	wantSum *= writers
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	h := NewHistogram(0.5, 1)
	h.Observe(0.25)
	h.Observe(2)
	reg.MustRegister("armada_ops_total", &c)
	reg.MustRegister("armada_ratio", h)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE armada_ops_total counter\narmada_ops_total 3\n",
		"# TYPE armada_ratio histogram\n",
		`armada_ratio_bucket{le="0.5"} 1`,
		`armada_ratio_bucket{le="1"} 1`,
		`armada_ratio_bucket{le="+Inf"} 2`,
		"armada_ratio_sum 2.25",
		"armada_ratio_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatBound(t *testing.T) {
	for in, want := range map[float64]string{
		0.5: "0_5", 1: "1", 2.25: "2_25", 1e21: "1e21",
	} {
		if got := boundName.Replace(formatFloat(in)); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestCounterValuesMonotonicDeltas: CounterValues snapshots taken while
// writers increment must be subtractable — every key present in every
// snapshot, no interval delta negative (counters, histogram counts and
// cumulative buckets alike), and the interval deltas telescoping to
// exactly the full-run delta. This is the contract the workload report's
// metric-delta block leans on.
func TestCounterValuesMonotonicDeltas(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	h := NewHistogram(1, 10, 100)
	reg.MustRegister("deltas_total", &c)
	reg.MustRegister("deltas_hist", h)
	reg.MustRegister("deltas_gauge", GaugeFunc(c.Value)) // must never appear in CounterValues

	const (
		writers = 6
		perW    = 4000
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(float64((w*perW + i) % 128))
			}
		}(w)
	}
	go func() { wg.Wait(); close(writersDone) }()

	snaps := []map[string]int64{reg.CounterValues()}
	for loop := true; loop; {
		select {
		case <-writersDone:
			loop = false
		default:
		}
		snaps = append(snaps, reg.CounterValues())
	}
	snaps = append(snaps, reg.CounterValues()) // quiescent final snapshot

	first, last := snaps[0], snaps[len(snaps)-1]
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots; the writers finished before any interval landed", len(snaps))
	}
	sums := make(map[string]int64)
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if len(cur) != len(prev) {
			t.Fatalf("snapshot %d has %d keys, previous had %d", i, len(cur), len(prev))
		}
		for k, v := range cur {
			pv, ok := prev[k]
			if !ok {
				t.Fatalf("key %q appeared between snapshots %d and %d", k, i-1, i)
			}
			if v < pv {
				t.Fatalf("key %q went backwards between snapshots %d and %d: %d -> %d", k, i-1, i, pv, v)
			}
			sums[k] += v - pv
		}
	}
	for k, sum := range sums {
		if full := last[k] - first[k]; sum != full {
			t.Errorf("key %q: interval deltas sum to %d, full-run delta is %d", k, sum, full)
		}
	}
	if _, ok := last["deltas_gauge"]; ok {
		t.Error("gauge leaked into CounterValues; deltas over it are meaningless")
	}
	if got, want := last["deltas_total"], int64(writers*perW); got != want {
		t.Errorf("deltas_total = %d, want %d", got, want)
	}
	if got, want := last["deltas_hist_count"], int64(writers*perW); got != want {
		t.Errorf("deltas_hist_count = %d, want %d", got, want)
	}
	if got, want := last["deltas_hist_le_inf"], last["deltas_hist_count"]; got != want {
		t.Errorf("le_inf bucket %d != observation count %d", got, want)
	}
}

// TestStripedExact: GOMAXPROCS goroutines update one counter and one
// histogram at once; the reads sum the cells and must be
// exact — every bucket, the count, and the sum of integer observations.
func TestStripedExact(t *testing.T) {
	const perG = 20000
	var c Counter
	h := NewHistogram(1, 10, 100)
	g := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				c.Inc()
				h.Observe(float64((w + i) % 128))
			}
		}()
	}
	wg.Wait()
	var want [4]int64 // ≤1, ≤10, ≤100, +Inf
	var sum float64
	for w := range g {
		for i := range perG {
			v := (w + i) % 128
			sum += float64(v)
			switch {
			case v <= 1:
				want[0]++
			case v <= 10:
				want[1]++
			case v <= 100:
				want[2]++
			default:
				want[3]++
			}
		}
	}
	total := int64(g * perG)
	if c.Value() != total || h.Count() != total {
		t.Fatalf("counter %d, histogram count %d, want %d", c.Value(), h.Count(), total)
	}
	if h.Sum() != sum {
		t.Errorf("sum = %v, want %v", h.Sum(), sum)
	}
	_, cum := h.Buckets()
	for i, n := range cum {
		if i > 0 {
			want[i] += want[i-1]
		}
		if n != want[i] {
			t.Errorf("cumulative bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// TestCellsOwnTheirLines: the words of an instrument's cells are a cache
// line apart, so no two cells share a line.
func TestCellsOwnTheirLines(t *testing.T) {
	var c cell
	if size, off := unsafe.Sizeof(c), unsafe.Offsetof(c.v); size != 64 || off != 56 {
		t.Fatalf("cell is %d bytes with its word at %d, want 64 and 56", size, off)
	}
}
