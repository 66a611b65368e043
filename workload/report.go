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
	// LatencyMs is the wall-clock service latency in milliseconds.
	LatencyMs Quantiles `json:"latency_ms"`
	// HopDelay, Messages and DestPeers are the paper's per-query cost
	// metrics (query kinds only; zero for publish/unpublish).
	HopDelay  Quantiles `json:"hop_delay"`
	Messages  Quantiles `json:"messages"`
	DestPeers Quantiles `json:"dest_peers"`
	// Hops is the realized per-descent hop count — one sample per query,
	// and one per page for range-paged walks (where HopDelay records the
	// walk max instead). This is the metric the shortcut table moves: warm
	// keys drop from ~log N toward 1.
	Hops Quantiles `json:"hops"`
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

// ShortcutReport summarizes the route cache's activity during one run
// (present only when the scenario enables it).
type ShortcutReport struct {
	// Capacity is the configured bound in learned owners; Entries the
	// count at run end.
	Capacity int `json:"capacity"`
	Entries  int `json:"entries"`
	// Hits and Misses count the lookups, range queries and session pages
	// that consulted the cache during the run; Stale counts entries
	// overwritten because churn had given their slot another owner;
	// Evicted counts capacity evictions. HitRate is Hits/(Hits+Misses).
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Stale   int64   `json:"stale,omitempty"`
	Evicted int64   `json:"evicted,omitempty"`
	HitRate float64 `json:"hit_rate"`
}

// ShortcutReportOf summarizes the route cache's activity between two
// snapshots of its counters; a zero start reports the cache's lifetime.
func ShortcutReportOf(start, end armada.ShortcutTableStats) *ShortcutReport {
	st := &ShortcutReport{
		Capacity: end.Capacity,
		Entries:  end.Entries,
		Hits:     end.Hits - start.Hits,
		Misses:   end.Misses - start.Misses,
		Stale:    end.Stale - start.Stale,
		Evicted:  end.Evicted - start.Evicted,
	}
	if routes := st.Hits + st.Misses; routes > 0 {
		st.HitRate = float64(st.Hits) / float64(routes)
	}
	return st
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

// HotPeer is one entry of the delivery-skew hottest-peers list.
type HotPeer struct {
	Peer string `json:"peer"`
	// Deliveries is the peer's delivery count during the run; Share its
	// fraction of all deliveries.
	Deliveries int64   `json:"deliveries"`
	Share      float64 `json:"share"`
}

// SkewReport summarizes how evenly query deliveries spread across peers
// during one run — the balance metric load control is judged by. Max and
// p99 are per-peer delivery counts divided by the mean over all peers
// present at run end (1.0 = perfectly even).
type SkewReport struct {
	MeanDeliveries float64 `json:"mean_deliveries"`
	MaxOverMean    float64 `json:"max_over_mean"`
	P99OverMean    float64 `json:"p99_over_mean"`
	// HotPeers lists the highest-delivery peers, hottest first.
	HotPeers []HotPeer `json:"hot_peers,omitempty"`
}

// LoadControlReport counts the adaptive load controller's actions during
// one run (present only when the scenario enables load control).
type LoadControlReport struct {
	// AutoSplits counts hot regions split; Migrations ownership moves
	// (cold donor leaves + hot region splits); CascadeSplits the extra
	// invariant-restoring splits those actions needed; FailedActions the
	// attempts the network rejected.
	AutoSplits    int64 `json:"auto_splits"`
	Migrations    int64 `json:"migrations"`
	CascadeSplits int64 `json:"cascade_splits,omitempty"`
	FailedActions int64 `json:"failed_actions,omitempty"`
}

// ChurnReport counts the churn events of one run.
type ChurnReport struct {
	Joins  int `json:"joins"`
	Leaves int `json:"leaves"`
	Fails  int `json:"fails"`
	// Skipped counts events suppressed by the MinPeers/MaxPeers guards.
	Skipped int `json:"skipped,omitempty"`
	Errors  int `json:"errors,omitempty"`
}

// Snapshot is one periodic observation of the running workload. The final
// snapshot (at the run's end) is always present.
type Snapshot struct {
	// AtSec is the snapshot time relative to the run start.
	AtSec float64 `json:"at_sec"`
	// Ops and Errors are the completions in this interval; Throughput is
	// their rate over the interval.
	Ops        int     `json:"ops"`
	Errors     int     `json:"errors"`
	Throughput float64 `json:"throughput_per_sec"`
	// Peers is the network size at snapshot time.
	Peers int `json:"peers"`
	// LatencyMs summarizes the wall-clock latencies of the operations that
	// completed in this interval (all kinds pooled) — interval-local, not
	// run-cumulative, so a latency regression shows in the interval it
	// happens.
	LatencyMs Quantiles `json:"latency_ms,omitzero"`
	// Metrics holds this interval's growth of every network counter that
	// moved (armada.MetricValues deltas; unchanged counters are omitted).
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Report is the outcome of one workload run. It marshals to the JSON
// schema BENCH_*.json entries use.
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
	// QueueWaitMs is the open-loop dispatch queue wait — the time between
	// an operation's Poisson arrival and a worker starting it — and
	// Dropped the number of arrivals shed because the bounded queue was
	// full. Both zero (and the former omitted) for closed-loop runs.
	QueueWaitMs Quantiles `json:"queue_wait_ms,omitzero"`
	Dropped     int       `json:"dropped,omitempty"`
	// AvailabilityMisses totals the per-op Misses: operations whose target
	// object crash churn had destroyed. Nonzero only without replication.
	AvailabilityMisses int `json:"availability_misses"`
	// ReReplications is how many objects churn repair copied between peers
	// to restore full replica groups during the run (replicated runs only).
	ReReplications int64 `json:"re_replications,omitempty"`
	// ReplicaReads counts query deliveries served by a non-primary
	// replica, and ReplicaReadSpread is the per-query distribution of the
	// fraction of deliveries a replica served (0 = all primary, 1 = all
	// spread). Both present only on replicated runs.
	ReplicaReads      int64     `json:"replica_reads,omitempty"`
	ReplicaReadSpread Quantiles `json:"replica_read_spread,omitzero"`
	// DescentsSaved and ShortcutHits total the per-op counters: queries
	// seeded at learned owners, and the subset the route cache seeded
	// (skipping even a walk's first descent).
	DescentsSaved int `json:"descents_saved,omitempty"`
	ShortcutHits  int `json:"shortcut_hits,omitempty"`
	// Shortcut summarizes the route cache's run activity; absent when the
	// scenario runs without one.
	Shortcut *ShortcutReport `json:"shortcut,omitempty"`
	// DeliverySkew summarizes the per-peer delivery balance of the run.
	DeliverySkew *SkewReport `json:"delivery_skew,omitempty"`
	// LoadControl counts the load controller's actions during the run;
	// absent when the scenario runs without load control.
	LoadControl *LoadControlReport `json:"load_control,omitempty"`
	// Metrics is the full-run growth of every network counter
	// (armada.MetricValues at run end minus run start, all keys), the
	// machine-readable face of the run: engine message and delivery
	// totals, cache hits, controller actions, conformance histograms.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// DelayBoundViolations counts queries whose realized hop delay reached
	// the paper's 2·log₂N bound during the run. The theorem says zero;
	// always present so CI can assert exactly that.
	DelayBoundViolations int64 `json:"delay_bound_violations"`
	// TailAttribution breaks the run's >p99 queries down by classified
	// cause (fractions sum to 1); SLO is the delay-bound burn-rate
	// monitor's closing state. Both are absent when the scenario runs
	// without a slow-query log (Scenario.SlowQueryLog).
	TailAttribution *armada.TailAttribution `json:"tail_attribution,omitempty"`
	SLO             *armada.SLOStatus       `json:"slo,omitempty"`
	// Memory records the built network's heap footprint and build (or
	// snapshot-load) wall-clock cost.
	Memory *MemoryReport `json:"memory,omitempty"`
	// Env records the environment the report was produced in.
	Env       *EnvReport `json:"env,omitempty"`
	Intervals []Snapshot `json:"intervals"`
}
