package workload

import (
	"armada"
	"armada/internal/stats"
)

// Quantiles summarizes one metric's distribution.
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func quantilesOf(s *stats.Sample) Quantiles {
	return Quantiles{
		Mean: s.Mean(),
		P50:  s.Percentile(50),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
		Max:  s.Max(),
	}
}

// OpReport summarizes one operation kind over the whole run.
type OpReport struct {
	// Count is the number of completed operations; Errors how many of
	// them failed. Misses counts availability misses — unpublishes and
	// lookups whose target object was already gone because crash churn
	// lost it (unreplicated networks only, in the absence of faults).
	// They are an expected outcome under churn, not a fault, so they are
	// kept strictly apart from Errors; replication (Scenario.Replicas ≥ 2)
	// is measured precisely by driving them to zero.
	Count  int `json:"count"`
	Errors int `json:"errors"`
	Misses int `json:"misses,omitempty"`
	// Cancelled counts operations cut short by run shutdown (context
	// cancellation mid-query or mid-walk). They are neither errors nor
	// samples — a partial walk recorded normally would skew the page and
	// match quantiles low — and are excluded from Count.
	Cancelled int `json:"cancelled,omitempty"`
	// DescentsSaved counts queries (pages, for range-paged) seeded at
	// learned owners — one direct hop per destination — instead of
	// descending the issuer's forward routing tree; ShortcutHits is the
	// subset the network's route cache seeded (Scenario.ShortcutTable)
	// rather than the owners a walk's own session kept.
	DescentsSaved int `json:"descents_saved,omitempty"`
	ShortcutHits  int `json:"shortcut_hits,omitempty"`
	// Throughput is Count over the run's wall-clock duration.
	Throughput float64 `json:"throughput_per_sec"`
	// LatencyMs is the wall-clock latency in milliseconds from the
	// operation's scheduled arrival to its completion, queue wait included.
	LatencyMs Quantiles `json:"latency_ms"`
	// Hops, Messages and DestPeers are the paper's per-query cost metrics
	// (query kinds only; zero for publish/unpublish): the realized hop
	// delay, overlay messages and distinct destination peers. Hops and
	// DestPeers take one sample per page of a range-paged walk, Messages
	// one per walk. Hops is also the metric the route cache moves: warm
	// keys drop from ~log N toward 1.
	Hops      Quantiles `json:"hops"`
	Messages  Quantiles `json:"messages"`
	DestPeers Quantiles `json:"dest_peers"`
	// Matches is the result-set size distribution (query kinds only; for
	// range-paged operations, the total across the whole walk).
	Matches Quantiles `json:"matches"`
	// Pages, MatchesPerPage and MessagesPerPage describe range-paged
	// walks: how many pages one operation took, how many objects each
	// page carried and how many overlay messages reaching it cost (the
	// session win shows here — seeded pages beyond the first
	// cost one message per surviving destination instead of a descent).
	// Omitted (all zero) for every other kind.
	Pages           Quantiles `json:"pages,omitzero"`
	MatchesPerPage  Quantiles `json:"matches_per_page,omitzero"`
	MessagesPerPage Quantiles `json:"messages_per_page,omitzero"`
}

// MemoryReport records the network's steady-state memory footprint and the
// cost of bringing it up — the scale metrics the 100k-peer runs are judged
// by. Heap numbers are taken after a forced GC, before preload traffic, so
// they measure the data plane (peers, routing tables, indexes), not the
// workload's objects.
type MemoryReport struct {
	// HeapAllocBytes is the live heap after the network is built;
	// BytesPerPeer divides it by the network size.
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	BytesPerPeer   float64 `json:"bytes_per_peer"`
	// BuildMs is the wall-clock cost of constructing the network (zero when
	// the caller reused an existing one); SnapshotLoadMs the cost of
	// restoring it from a warm-start snapshot instead (zero on cold builds).
	BuildMs        float64 `json:"build_ms,omitempty"`
	SnapshotLoadMs float64 `json:"snapshot_load_ms,omitempty"`
}

// EnvReport records the execution environment a report was produced in;
// latencies from different environments are not comparable.
type EnvReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// ChurnReport counts the churn events of one run.
type ChurnReport struct {
	Joins  int `json:"joins"`
	Leaves int `json:"leaves"`
	Fails  int `json:"fails"`
	// Skipped counts events suppressed by the MinPeers guard.
	Skipped int `json:"skipped,omitempty"`
	Errors  int `json:"errors,omitempty"`
}

// Report is the outcome of one workload run, summarized once the run has
// ended: per operation kind, latency and the paper's cost metrics (hops,
// messages, destination peers); the arrival process's saturation; churn;
// and the full-run growth of the network's counters. Nothing in it is
// observable mid-run — live progress is the network's registry itself,
// which armada-load serves at -metrics-addr's /metrics. It marshals to the
// JSON armada-load writes; the repeated benchmark behind the BENCH_*.json
// files is bench/, not this report.
type Report struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Attributes int    `json:"attributes"`
	// Replicas is the network's replication degree (1 = unreplicated).
	Replicas   int `json:"replicas"`
	StartPeers int `json:"start_peers"`
	EndPeers   int `json:"end_peers"`
	// DurationSec is the measured wall-clock run time (excluding network
	// build and preload).
	DurationSec float64 `json:"duration_sec"`
	TotalOps    int     `json:"total_ops"`
	TotalErrors int     `json:"total_errors"`
	// TotalCancelled totals the per-op Cancelled counts: operations cut
	// short by run shutdown, excluded from TotalOps and every sample.
	TotalCancelled int `json:"total_cancelled,omitempty"`
	// Throughput is TotalOps / DurationSec across all kinds.
	Throughput float64 `json:"throughput_per_sec"`
	// Ops maps operation-kind name → summary; kinds with zero weight are
	// absent.
	Ops   map[string]OpReport `json:"ops"`
	Churn ChurnReport         `json:"churn"`
	// QueueWaitMs is the time from scheduled arrival to an executor starting
	// the operation, a part of its latency; DispatchLateMs the generator's
	// lateness (release minus scheduled time) over arrivals an idle executor
	// waited for; Dropped the arrivals due by a stop that no executor took.
	QueueWaitMs    Quantiles `json:"queue_wait_ms"`
	DispatchLateMs Quantiles `json:"dispatch_late_ms"`
	Dropped        int       `json:"dropped"`
	// AvailabilityMisses totals the per-op Misses: operations whose target
	// object crash churn had destroyed. Nonzero only without replication.
	AvailabilityMisses int `json:"availability_misses"`
	// DescentsSaved and ShortcutHits total the per-op counters: queries
	// seeded at learned owners, and the subset the route cache seeded
	// (skipping even a walk's first descent).
	DescentsSaved int `json:"descents_saved,omitempty"`
	ShortcutHits  int `json:"shortcut_hits,omitempty"`
	// Metrics is the full-run growth of every network counter
	// (armada.MetricValues at run end minus run start, all keys), the one
	// place the report carries a registry counter: engine message and
	// delivery totals, route-cache hits, controller actions, churn repair
	// copies, delay_bound_violations (the paper's theorem says zero),
	// conformance histograms.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// TailAttribution breaks the queries above the run's p99 of client
	// time (queue wait plus service) down by classified cause (fractions
	// sum to 1). It is absent when the scenario runs without a slow-query
	// log (Scenario.SlowQueryLog).
	TailAttribution *armada.TailAttribution `json:"tail_attribution,omitempty"`
	// Memory records the built network's heap footprint and build (or
	// snapshot-load) wall-clock cost.
	Memory *MemoryReport `json:"memory,omitempty"`
	// Env records the environment the report was produced in.
	Env *EnvReport `json:"env,omitempty"`
}
