// Package workload is a scenario-driven load generator for a live
// armada.Network: operations of a weighted mix (publish, unpublish, lookup,
// range, multi-range, top-k, flood, range-paged) with configurable key and
// range-size distributions arrive on a Poisson schedule and are served by
// concurrent executors. Optional churn — peers joining, leaving gracefully
// and crashing — arrives on the same schedule and is served by the same
// executors.
//
// A Scenario declares the workload; a Runner executes it for a duration or
// a number of operations under a context.Context and produces a Report with
// per-op-kind throughput, error counts, latency percentiles and the paper's
// hop-delay/message/destination metrics. Each executor records its own
// samples, merged once the run ends, so recording takes no lock and the
// report is a run-end summary; the network's registry is the live view.
// There is one arrival model, open-loop: an operation's latency runs from
// its scheduled arrival, so time it waited for an executor counts, and a
// system that falls behind shows as latency, never as a slower arrival
// rate. A report describes one run at one offered rate; throughput at
// saturation, and the repeated, duration-based numbers behind the
// BENCH_*.json files, are bench/'s to measure.
//
//	sc, _ := workload.Preset("churn-heavy")
//	rep, err := workload.Execute(ctx, sc)
//	json.NewEncoder(os.Stdout).Encode(rep)
//
// Eleven named presets (Presets lists them: steady at 500, 10k and 100k
// peers, zipf-hot, warm-keys, scan-heavy, hot-drift, hot-drift-cap,
// churn-heavy, flood-storm, mixed) cover the scenario space the paper does
// not: skewed access, route-cache reuse, paged scans, load control, heavy
// churn and the unpruned-flood ablation under load. The armada-load command
// is the CLI front end.
package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"armada"
)

// OpKind identifies one operation type of the mix.
type OpKind int

// Operation kinds, in mix order.
const (
	OpPublish OpKind = iota
	OpUnpublish
	OpLookup
	OpRange
	OpMultiRange
	OpTopK
	OpFlood
	OpRangePaged
	numOps
	// The churn events follow the operations among the schedule's kinds.
	churnJoin = iota - 1
	churnLeave
	churnFail
	numKinds
)

// String names the kind; the names key the Report's per-op map.
func (k OpKind) String() string {
	switch k {
	case OpPublish:
		return "publish"
	case OpUnpublish:
		return "unpublish"
	case OpLookup:
		return "lookup"
	case OpRange:
		return "range"
	case OpMultiRange:
		return "multi-range"
	case OpTopK:
		return "top-k"
	case OpFlood:
		return "flood"
	case OpRangePaged:
		return "range-paged"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Mix holds the relative weight of each operation kind. Weights are
// arbitrary non-negative numbers; only their ratios matter. A zero weight
// disables the kind.
//
// Range constrains the first attribute and leaves the others unbounded;
// MultiRange constrains every attribute (on a single-attribute network the
// two coincide). RangePaged runs the same range shape as Range but walks
// the result in pages of Scenario.PageLimit objects via WithLimit and
// WithOffsetID, recording per-page metrics — one operation is the whole
// walk. TopK asks the same range shape for the topK objects of highest
// first attribute. Unpublish targets a previously published object; when
// none remains, the operation falls back to a publish so the mix stays
// sustainable.
type Mix struct {
	Publish    float64 `json:"publish,omitempty"`
	Unpublish  float64 `json:"unpublish,omitempty"`
	Lookup     float64 `json:"lookup,omitempty"`
	Range      float64 `json:"range,omitempty"`
	MultiRange float64 `json:"multi_range,omitempty"`
	TopK       float64 `json:"top_k,omitempty"`
	Flood      float64 `json:"flood,omitempty"`
	RangePaged float64 `json:"range_paged,omitempty"`
}

// topK is the K of every top-k operation.
const topK = 10

// weights returns the mix in OpKind order.
func (m Mix) weights() [numOps]float64 {
	return [numOps]float64{m.Publish, m.Unpublish, m.Lookup, m.Range, m.MultiRange, m.TopK, m.Flood, m.RangePaged}
}

func (m Mix) total() float64 {
	t := 0.0
	for _, w := range m.weights() {
		t += w
	}
	return t
}

// KeyDistKind selects how attribute values (and range-query centers) are
// drawn from an attribute space.
type KeyDistKind int

const (
	// KeyUniform draws values uniformly over the attribute space.
	KeyUniform KeyDistKind = iota
	// KeyZipf draws bucket ranks from a Zipf distribution, concentrating
	// traffic on the low end of the space.
	KeyZipf
	// KeyHotspot draws from a small hot sub-interval with high
	// probability and uniformly otherwise.
	KeyHotspot
)

// String names the distribution kind.
func (k KeyDistKind) String() string {
	switch k {
	case KeyUniform:
		return "uniform"
	case KeyZipf:
		return "zipf"
	case KeyHotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("KeyDistKind(%d)", int(k))
	}
}

// KeyDist configures the value distribution of published objects and
// query targets.
type KeyDist struct {
	Kind KeyDistKind `json:"kind"`
	// ZipfS is the Zipf exponent (> 1; default 1.2). KeyZipf only.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// HotFraction is the width of the hot interval as a fraction of the
	// space (default 0.1). KeyHotspot only.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotWeight is the probability of drawing from the hot interval
	// (default 0.9). KeyHotspot only.
	HotWeight float64 `json:"hot_weight,omitempty"`
}

// SizeDist draws a queried range's width as a fraction of the attribute
// space, uniformly in [MinFrac, MaxFrac].
type SizeDist struct {
	MinFrac float64 `json:"min_frac"`
	MaxFrac float64 `json:"max_frac"`
}

// Arrival sets the arrival process, which is always open-loop: operations
// arrive on an absolute Poisson schedule at RatePerSec (default 3,000/s)
// for Workers concurrent executors (default 8): an idle one waits for the
// next arrival and serves it, and while all are busy arrivals wait. Each
// operation's latency runs from its scheduled arrival, so that wait is part
// of it: overload surfaces as latency, never as a sag of the arrival rate.
type Arrival struct {
	Workers    int     `json:"workers"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
}

// Churn sets the peer dynamics: joins, graceful leaves and crash-stops at
// the given per-second rates, arriving on the one Poisson schedule the
// operations follow and served by the same executors, one event at a
// time. Leaves and crashes are skipped while the network is at or below
// MinPeers; skips are counted in the report.
type Churn struct {
	JoinPerSec  float64 `json:"join_per_sec,omitempty"`
	LeavePerSec float64 `json:"leave_per_sec,omitempty"`
	FailPerSec  float64 `json:"fail_per_sec,omitempty"`
	MinPeers    int     `json:"min_peers,omitempty"`
}

func (c Churn) totalRate() float64 { return c.JoinPerSec + c.LeavePerSec + c.FailPerSec }

// Enabled reports whether any churn rate is positive.
func (c Churn) Enabled() bool { return c.totalRate() > 0 }

// Scenario declares one workload: the network shape, the operation mix and
// its distributions, the arrival model, the churn rates, and the stop
// condition (Ops and/or Duration — whichever is reached first ends the
// run; at least one must be set).
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Peers is the initial network size Execute builds (ignored by Run,
	// which receives a live network).
	Peers int `json:"peers"`
	// Seed seeds the schedule (each arrival's time and kind, operation or
	// churn event) and each executor's key and range draws. Which executor
	// takes an arrival is up to the Go scheduler, so two runs of one seed
	// need not issue the same keys (wall-clock metrics vary too).
	Seed int64 `json:"seed"`
	// Attrs are the attribute spaces; default one [0, 1000] space.
	Attrs []armada.AttributeSpace `json:"attrs,omitempty"`
	// Preload is the number of objects published before the measured run
	// starts (they also seed the unpublish pool).
	Preload int `json:"preload"`
	// Replicas is the network's replication degree (default 1, the
	// paper's unreplicated single-owner model). With 2 or more, objects
	// survive crash-stop churn and reads spread across replica groups.
	Replicas int `json:"replicas,omitempty"`
	// PageLimit is the page size of range-paged operations (default 256).
	PageLimit int `json:"page_limit,omitempty"`
	// RangeBuckets, when positive, snaps every range query's bounds
	// outward to a grid of that many buckets per attribute space. Hot
	// workloads then repeat byte-identical regions — the repeating-scan
	// access pattern (dashboards, result pages) the route cache
	// exists for — instead of the continuous never-repeating bounds the
	// samplers otherwise draw. Default 0 — continuous bounds.
	RangeBuckets int `json:"range_buckets,omitempty"`
	// ShortcutTable, when positive, builds the network with the
	// issuer-side route cache, that many learned owners at most
	// (armada.WithShortcutTable): lookups, range queries and session pages
	// whose destinations it knows are seeded in one direct hop per
	// destination instead of a ~log N descent, reported as shortcut_hits
	// and the shortcut_*_total metrics. Default 0 — no cache.
	ShortcutTable int `json:"shortcut_table,omitempty"`
	// LoadControl builds the network with the adaptive load controller
	// (armada.WithLoadControl): hot regions auto-split under sustained
	// delivery load (150 deliveries/s on one region) and, at the growth
	// cap, ownership migrates from cold peers toward hot regions. The run's
	// actions land in the loadctl_*_total metrics. Default false.
	LoadControl bool `json:"load_control,omitempty"`
	// MaxGrowth caps the peers the controller's actions may add (0 =
	// the armada default, an eighth of the initial size). A low cap pushes
	// the controller into migration early — the hot-drift-cap preset uses
	// it to exercise ownership migration inside a short run. Requires
	// LoadControl.
	MaxGrowth int `json:"max_growth,omitempty"`
	// SlowQueryLog, when positive, builds the network with the
	// query-diagnostics layer (armada.WithDiagnostics): a log of the N
	// slowest queries, ranked by queue wait plus service time, per-query
	// cause classification, the report's tail_attribution block, and
	// armada-load's /debug/armada introspection endpoints and -slow-out
	// dump. At most armada.MaxSlowLogCapacity. Default 0 — no diagnostics.
	SlowQueryLog int `json:"slow_query_log,omitempty"`
	// HotDrift, when positive, makes the KeyHotspot hot interval drift:
	// its low edge sweeps the whole key space once per HotDrift period
	// (wrapping), so publishes and queries chase a moving hotspot instead
	// of a pinned one, placed at each operation's scheduled arrival.
	// Requires Keys.Kind == KeyHotspot. Default 0 — the hot interval stays
	// at the low end of the space.
	HotDrift time.Duration `json:"hot_drift,omitempty"`

	Mix       Mix      `json:"mix"`
	Keys      KeyDist  `json:"keys"`
	RangeSize SizeDist `json:"range_size"`
	Arrival   Arrival  `json:"arrival"`
	Churn     Churn    `json:"churn"`

	// Ops stops the run after that many scheduled operations (0 = no
	// limit; churn events do not count), every one of them served: a run
	// Ops stops reports dropped == 0 and total_ops + total_cancelled == Ops.
	Ops int `json:"ops,omitempty"`
	// Duration stops the run after that much wall-clock time (0 = no time
	// limit).
	Duration time.Duration `json:"duration,omitempty"`
}

// MaxWorkers caps Arrival.Workers. Each executor is a goroutine with its
// own samples (~3.6 KB before it records anything) that takes its turn on
// the arrival clock: 10⁸ of them ran for minutes to serve one arrival.
// 4,096 is 512× the default of 8.
const MaxWorkers = 4096

// ErrBadScenario tags scenario validation failures.
var ErrBadScenario = errors.New("workload: invalid scenario")

// withDefaults returns the scenario with zero values filled in.
func (s Scenario) withDefaults() Scenario {
	if s.Name == "" {
		s.Name = "custom"
	}
	if s.Peers == 0 {
		s.Peers = 500
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Attrs) == 0 {
		s.Attrs = []armada.AttributeSpace{{Low: 0, High: 1000}}
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.PageLimit == 0 {
		s.PageLimit = 256
	}
	if s.Mix.total() == 0 {
		s.Mix = Mix{Publish: 10, Unpublish: 5, Lookup: 10, Range: 70, TopK: 5}
	}
	if s.Keys.Kind == KeyZipf && s.Keys.ZipfS == 0 {
		s.Keys.ZipfS = 1.2
	}
	if s.Keys.Kind == KeyHotspot {
		if s.Keys.HotFraction == 0 {
			s.Keys.HotFraction = 0.1
		}
		if s.Keys.HotWeight == 0 {
			s.Keys.HotWeight = 0.9
		}
	}
	if s.RangeSize.MinFrac == 0 && s.RangeSize.MaxFrac == 0 {
		s.RangeSize = SizeDist{MinFrac: 0.01, MaxFrac: 0.1}
	}
	if s.Arrival.Workers == 0 {
		s.Arrival.Workers = 8
	}
	if s.Arrival.RatePerSec == 0 {
		s.Arrival.RatePerSec = 3000
	}
	if s.Churn.Enabled() && s.Churn.MinPeers == 0 {
		s.Churn.MinPeers = 16
	}
	return s
}

// NetworkOptions returns the armada.NewNetwork options a defaults-filled
// scenario requires — seed, attribute spaces, replication degree and the
// route cache. Execute and the armada-load command both build their
// network from it, so a scenario can never run against a mismatched one.
func (s Scenario) NetworkOptions() []armada.Option {
	opts := []armada.Option{
		armada.WithSeed(s.Seed),
		armada.WithAttributes(s.Attrs...),
		armada.WithReplication(s.Replicas),
	}
	if s.ShortcutTable > 0 {
		opts = append(opts, armada.WithShortcutTable(s.ShortcutTable))
	}
	if s.LoadControl {
		opts = append(opts, armada.WithLoadControl(armada.LoadControlConfig{MaxGrowth: s.MaxGrowth}))
	}
	if s.SlowQueryLog > 0 {
		opts = append(opts, armada.WithDiagnostics(armada.DiagnosticsConfig{SlowLogCapacity: s.SlowQueryLog}))
	}
	return opts
}

// Normalize returns the scenario with every zero field defaulted, and an
// ErrBadScenario error when the result is not executable — the same
// preparation New and Execute apply internally. Callers that build the
// network themselves use it to see the effective peer count, seed and
// attribute spaces.
func (s Scenario) Normalize() (Scenario, error) {
	s = s.withDefaults()
	return s, s.validate()
}

// validate checks a defaults-filled scenario. NaN fails every float check.
func (s Scenario) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadScenario, fmt.Sprintf(format, args...))
	}
	if s.Peers < 3 {
		return bad("peers %d < 3", s.Peers)
	}
	for i, w := range s.Mix.weights() {
		if !(w >= 0) {
			return bad("weight %v for %v is not a non-negative number", w, OpKind(i))
		}
	}
	if t := s.Mix.total(); !(t > 0 && t <= math.MaxFloat64) {
		return bad("operation mix total %v is not finite and positive", t)
	}
	if s.Ops <= 0 && s.Duration <= 0 {
		return bad("need a stop condition: Ops or Duration")
	}
	if s.Replicas < 1 || s.Replicas > 16 {
		return bad("replication degree %d outside [1, 16]", s.Replicas)
	}
	if s.Ops < 0 || s.Duration < 0 || s.Preload < 0 {
		return bad("negative Ops, Duration or Preload")
	}
	if s.Keys.Kind == KeyZipf && !(s.Keys.ZipfS > 1 && s.Keys.ZipfS <= math.MaxFloat64) {
		return bad("Zipf exponent %v must be finite and exceed 1", s.Keys.ZipfS)
	}
	if s.Keys.Kind == KeyHotspot &&
		!(s.Keys.HotFraction > 0 && s.Keys.HotFraction <= 1 && s.Keys.HotWeight >= 0 && s.Keys.HotWeight <= 1) {
		return bad("hotspot fraction %v / weight %v out of range", s.Keys.HotFraction, s.Keys.HotWeight)
	}
	if !(s.RangeSize.MinFrac >= 0 && s.RangeSize.MinFrac <= s.RangeSize.MaxFrac && s.RangeSize.MaxFrac <= 1) {
		return bad("range-size fractions [%v, %v] out of order", s.RangeSize.MinFrac, s.RangeSize.MaxFrac)
	}
	if s.Arrival.Workers < 1 || s.Arrival.Workers > MaxWorkers {
		return bad("workers %d outside [1, %d]", s.Arrival.Workers, MaxWorkers)
	}
	if s.PageLimit < 1 && s.Mix.RangePaged > 0 {
		return bad("range-paged weight set but page limit = %d", s.PageLimit)
	}
	if s.RangeBuckets < 0 {
		return bad("negative range buckets %d", s.RangeBuckets)
	}
	if s.ShortcutTable < 0 {
		return bad("negative shortcut table capacity %d", s.ShortcutTable)
	}
	if s.MaxGrowth < 0 {
		return bad("negative load-control growth cap %d", s.MaxGrowth)
	}
	if s.MaxGrowth > 0 && !s.LoadControl {
		return bad("growth cap %d set without load control", s.MaxGrowth)
	}
	if s.SlowQueryLog < 0 || s.SlowQueryLog > armada.MaxSlowLogCapacity {
		return bad("slow-query log capacity %d outside [0, %d]", s.SlowQueryLog, armada.MaxSlowLogCapacity)
	}
	if s.HotDrift < 0 {
		return bad("negative hot drift %v", s.HotDrift)
	}
	if s.HotDrift > 0 && s.Keys.Kind != KeyHotspot {
		return bad("hot drift requires the hotspot key distribution, got %v", s.Keys.Kind)
	}
	if c := s.Churn; !(c.JoinPerSec >= 0 && c.LeavePerSec >= 0 && c.FailPerSec >= 0 && c.totalRate() <= math.MaxFloat64) {
		return bad("churn rates %v/%v/%v are not finite and non-negative", c.JoinPerSec, c.LeavePerSec, c.FailPerSec)
	}
	if t := s.Churn.totalRate(); t > 0 && t < 1.0/3600 {
		return bad("churn rate %v/s is neither zero nor at least one an hour", t)
	}
	// Near zero the mean gap overflows a time.Duration, and above 1e9/s it
	// truncates to 0 ns and the schedule stands still: one operation an hour
	// is the floor, and one arrival a nanosecond, operations and churn
	// together, the ceiling.
	if t := s.Arrival.RatePerSec + s.Churn.totalRate(); !(s.Arrival.RatePerSec >= 1.0/3600 && t <= 1e9) {
		return bad("arrival rate %v/s (%v/s with churn) is not between one an hour and one a nanosecond", s.Arrival.RatePerSec, t)
	}
	for i, a := range s.Attrs {
		if !(a.Low < a.High) || math.IsInf(a.High-a.Low, 0) {
			return bad("attribute %d space [%v, %v]", i, a.Low, a.High)
		}
	}
	return nil
}
