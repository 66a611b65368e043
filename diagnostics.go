package armada

import (
	"cmp"
	"slices"

	"armada/internal/diag"
	"armada/internal/fissione"
)

// The diagnostics layer's record types are defined in internal/diag and
// re-exported here by alias: the JSON shapes served by armada-load's
// /debug/armada endpoints, dumped by -slow-out, and embedded in the
// workload report are one and the same.
type (
	// SlowQuery is one slow-query log record: identity, timing, the
	// classified cause and the per-stage critical-path breakdown.
	SlowQuery = diag.Record
	// StageTiming is one stage's share of a SlowQuery's breakdown.
	StageTiming = diag.StageMs
	// TailAttribution reports, for the queries slower than the run's p99,
	// the fraction attributed to each cause.
	TailAttribution = diag.Attribution
	// SLOStatus is the burn-rate monitor's state over the delay bound:
	// fast- and slow-window burn rates plus cumulative totals.
	SLOStatus = diag.SLOReport
)

// DiagnosticsEnabled reports whether the network was built
// WithDiagnostics.
func (n *Network) DiagnosticsEnabled() bool { return n.obs.diag != nil }

// SlowQueries returns the slow-query log's retained records, oldest first.
// It returns nil on a network built without WithDiagnostics.
func (n *Network) SlowQueries() []SlowQuery {
	if n.obs.diag == nil {
		return nil
	}
	return n.obs.diag.SlowQueries()
}

// TailAttributionReport returns the run's tail-latency attribution; ok is
// false on a network built without WithDiagnostics.
func (n *Network) TailAttributionReport() (TailAttribution, bool) {
	if n.obs.diag == nil {
		return TailAttribution{}, false
	}
	return n.obs.diag.TailAttribution(), true
}

// SLOStatusReport returns the delay-bound SLO burn-rate monitor's state;
// ok is false on a network built without WithDiagnostics.
func (n *Network) SLOStatusReport() (SLOStatus, bool) {
	if n.obs.diag == nil {
		return SLOStatus{}, false
	}
	return n.obs.diag.SLOReport(), true
}

// SlowThresholdMs returns the slow-query threshold currently in force in
// milliseconds — the fixed configured value, or the adaptive EWMA of the
// observed p99 (0 until its first batch). ok is false without
// WithDiagnostics.
func (n *Network) SlowThresholdMs() (float64, bool) {
	if n.obs.diag == nil {
		return 0, false
	}
	return n.obs.diag.ThresholdMs(), true
}

// Epoch returns the live topology epoch — bumped by every join, leave,
// failure, split and migration.
func (n *Network) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.Epoch()
}

// RegionHeat is one region's row in the live heat listing: its owner, its
// size, its store, its cumulative deliveries and — when the adaptive load
// controller runs — its EWMA delivery rate.
type RegionHeat struct {
	// Peer identifies the region's owner; Width is the region's size
	// exponent (free ObjectID symbols: the region spans on the order of
	// 2^Width ObjectIDs).
	Peer  string `json:"peer"`
	Width int    `json:"width"`
	// Objects is the peer's current store size (replicated copies
	// included); Deliveries its cumulative query deliveries.
	Objects    int   `json:"objects"`
	Deliveries int64 `json:"deliveries"`
	// RatePerSec is the region's EWMA delivery rate from the load
	// controller; 0 when the network runs without WithLoadControl.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
}

// RegionHeatReport lists every region's live heat, hottest first — by
// controller EWMA rate when load control runs, by cumulative deliveries
// otherwise. topN > 0 caps the listing.
func (n *Network) RegionHeatReport(topN int) []RegionHeat {
	rates := map[string]float64{}
	if n.lctl != nil {
		for _, r := range n.lctl.Rates() {
			rates[r.ID] = r.Rate
		}
	}
	out := peerRows(n, func(id string, width int, p *fissione.Peer) RegionHeat {
		return RegionHeat{Peer: id, Width: width, Objects: p.ObjectCount(), Deliveries: p.Deliveries(), RatePerSec: rates[id]}
	})
	slices.SortFunc(out, func(a, b RegionHeat) int {
		return cmp.Or(cmp.Compare(b.RatePerSec, a.RatePerSec), cmp.Compare(b.Deliveries, a.Deliveries), cmp.Compare(a.Peer, b.Peer))
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}
