package workload

import (
	"time"

	"armada"
)

// presets are the named scenarios armada-load ships, in listing order.
// Each is self-contained: it carries its own network size and op budget so
// `armada-load -scenario <name>` completes without further flags.
var presets = []Scenario{
	{
		// Uniform read-mostly traffic on a stable network — the baseline
		// every other scenario is compared against.
		Name:    "steady",
		Peers:   500,
		Preload: 2000,
		Ops:     5000,
		Mix:     Mix{Publish: 10, Unpublish: 8, Lookup: 12, Range: 60, TopK: 5, MultiRange: 0, Flood: 0},
		Keys:    KeyDist{Kind: KeyUniform},
	},
	{
		// The steady mix at 10k peers — the CI scale smoke. Small op
		// budget: the point is the memory block (bytes_per_peer, build or
		// snapshot-load wall clock) and a clean sampled audit at a size
		// where the full audit is already slow, not fresh query statistics.
		Name:    "steady-10k",
		Peers:   10_000,
		Preload: 5000,
		Ops:     2000,
		Mix:     Mix{Publish: 10, Unpublish: 8, Lookup: 12, Range: 60, TopK: 5},
		Keys:    KeyDist{Kind: KeyUniform},
	},
	{
		// The steady mix at the paper-scale 100k peers. Run it with a
		// warm-start snapshot (-snapshot-in) to skip the cold build;
		// post-run verification should use -audit-sample, since the full
		// per-peer table check at this size costs minutes.
		Name:    "steady-100k",
		Peers:   100_000,
		Preload: 20_000,
		Ops:     2000,
		Mix:     Mix{Publish: 10, Unpublish: 8, Lookup: 12, Range: 60, TopK: 5},
		Keys:    KeyDist{Kind: KeyUniform},
	},
	{
		// Zipf-skewed keys and narrow ranges: most traffic hammers the few
		// peers owning the hot end of the namespace (the D3-Tree/ART
		// skewed-access scenario). A slice of the range traffic runs the
		// paginated variant — same query shape, walked in PageLimit-sized
		// pages — so the report shows what pagination costs and saves
		// (pages and matches-per-page quantiles) next to the materializing
		// baseline.
		Name:      "zipf-hot",
		Peers:     500,
		Preload:   3000,
		Ops:       5000,
		Mix:       Mix{Publish: 10, Unpublish: 5, Lookup: 10, Range: 67, RangePaged: 8},
		Keys:      KeyDist{Kind: KeyZipf, ZipfS: 1.2},
		RangeSize: SizeDist{MinFrac: 0.002, MaxFrac: 0.02},
		// 512-object pages over a mean hot result of ~1.7k objects give
		// 3-4 page walks; the paged slice is weighted so the walk's extra
		// descents keep total query pressure comparable to the original
		// preset (which ran Range at 75).
		PageLimit: 512,
	},
	{
		// Warm-key traffic the route cache exists for: heavily
		// Zipf-skewed lookups and narrow bucketed ranges revisit the same
		// few regions over and over, so after a brief learning phase most
		// queries route in one direct hop per destination instead of a
		// ~log N descent (shortcut.hit_rate near 1, hops mean ≤ 2). The
		// 512-entry cache comfortably learns the whole 500-peer ownership
		// map. Rerun with -shortcut-table 0 for the descent baseline —
		// results are byte-identical, only hops and messages move.
		Name:          "warm-keys",
		Peers:         500,
		Preload:       3000,
		Ops:           5000,
		Mix:           Mix{Publish: 5, Lookup: 45, Range: 45, RangePaged: 5},
		Keys:          KeyDist{Kind: KeyZipf, ZipfS: 1.3},
		RangeSize:     SizeDist{MinFrac: 0.001, MaxFrac: 0.01},
		RangeBuckets:  256,
		PageLimit:     256,
		ShortcutTable: 512,
	},
	{
		// Scan-dominated traffic over repeating hot ranges — the workload
		// query sessions and the route cache exist for. Range bounds
		// snap to a 64-bucket grid, so the zipf-hot scans repeat
		// byte-identical regions (dashboards, result pages); paged walks
		// run through sessions (descents_saved ≈ pages − 1 per walk), and
		// regions whose owners are learned seed even page 1 from the cache
		// (shortcut_hits, shortcut.hit_rate). Rerun with -shortcut-table 0
		// to drop the cache and leave the sessions' own savings.
		Name:          "scan-heavy",
		Peers:         500,
		Preload:       4000,
		Ops:           4000,
		Mix:           Mix{Publish: 5, Lookup: 5, Range: 20, RangePaged: 70},
		Keys:          KeyDist{Kind: KeyZipf, ZipfS: 1.3},
		RangeSize:     SizeDist{MinFrac: 0.01, MaxFrac: 0.05},
		PageLimit:     256,
		RangeBuckets:  64,
		ShortcutTable: 512,
	},
	{
		// A narrow hotspot that drifts across the key space during the run:
		// publishes and range scans chase the moving hot interval, piling
		// objects and deliveries onto whichever few peers own it at each
		// moment — the regime occupancy-based splitting cannot fix, and the
		// adaptive load controller exists for. Runs with load control on
		// (auto-split + migration). Duration-bounded because the drift is
		// wall-clock. 2-way replicated so controller-driven departures and
		// splits are also exercised against replica repair.
		Name:     "hot-drift",
		Peers:    400,
		Preload:  4000,
		Duration: 6 * time.Second,
		Replicas: 2,
		Mix:      Mix{Publish: 50, Unpublish: 5, Lookup: 5, Range: 40},
		Keys:     KeyDist{Kind: KeyHotspot, HotFraction: 0.02, HotWeight: 0.95},
		// Half a sweep per run: slow enough that publishes pile up on the
		// current hot owners (the uncontrolled failure mode), fast enough
		// that the controller has to chase the hotspot, not just fix a
		// static one.
		HotDrift:    12 * time.Second,
		RangeSize:   SizeDist{MinFrac: 0.002, MaxFrac: 0.01},
		LoadControl: true,
	},
	{
		// hot-drift with the controller's growth cap clamped low: auto-split
		// capacity exhausts in the first second or two, so the rest of the
		// run must chase the hotspot through ownership migration — the
		// preset that makes `migrations > 0` a hard assertion rather than a
		// lucky outcome. Identical traffic to hot-drift otherwise.
		Name:        "hot-drift-cap",
		Peers:       400,
		Preload:     4000,
		Duration:    6 * time.Second,
		Replicas:    2,
		Mix:         Mix{Publish: 50, Unpublish: 5, Lookup: 5, Range: 40},
		Keys:        KeyDist{Kind: KeyHotspot, HotFraction: 0.02, HotWeight: 0.95},
		HotDrift:    12 * time.Second,
		RangeSize:   SizeDist{MinFrac: 0.002, MaxFrac: 0.01},
		LoadControl: true,
		MaxGrowth:   4,
	},
	{
		// Sustained mixed traffic while the overlay churns hard, including
		// crash-stops — the regime the paper's stable-network delay bounds
		// say nothing about. Runs with 2-way replication so crashes lose
		// nothing (availability_misses ~0, repair copies > 0); rerun with
		// -replicas 1 for the unreplicated baseline, where crash losses
		// surface as lookup/unpublish misses.
		Name:     "churn-heavy",
		Peers:    400,
		Preload:  1500,
		Ops:      4000,
		Replicas: 2,
		Mix:      Mix{Publish: 15, Unpublish: 10, Lookup: 15, Range: 55, TopK: 5},
		Keys:     KeyDist{Kind: KeyUniform},
		// At the default 3,000 arrivals/s the 4,000 operations take ~1.3 s,
		// so these rates fire ~800 churn events: one per ~5 operations.
		Churn: Churn{JoinPerSec: 300, LeavePerSec: 220, FailPerSec: 80, MinPeers: 64},
	},
	{
		// Half the queries run the unpruned FRT flood ablation, measuring
		// what Armada's pruning buys under concurrent load, at half the
		// default arrival rate.
		Name:    "flood-storm",
		Peers:   200,
		Preload: 1000,
		Ops:     1500,
		Mix:     Mix{Publish: 10, Lookup: 10, Range: 40, Flood: 40},
		Keys:    KeyDist{Kind: KeyHotspot, HotFraction: 0.2, HotWeight: 0.8},
		Arrival: Arrival{RatePerSec: 1500},
	},
	{
		// Everything at once: two attributes, every op kind, skewed keys
		// and moderate churn — the CI smoke scenario.
		Name:    "mixed",
		Peers:   500,
		Preload: 2000,
		Ops:     3000,
		Attrs: []armada.AttributeSpace{
			{Low: 0, High: 1000},
			{Low: 0, High: 100},
		},
		Mix:   Mix{Publish: 12, Unpublish: 8, Lookup: 10, Range: 35, MultiRange: 20, TopK: 10, Flood: 5},
		Keys:  KeyDist{Kind: KeyZipf, ZipfS: 1.3},
		Churn: Churn{JoinPerSec: 80, LeavePerSec: 60, FailPerSec: 20, MinPeers: 64},
	},
}

// Presets returns the named scenarios in listing order (copies; callers
// may adjust them freely).
func Presets() []Scenario {
	out := make([]Scenario, len(presets))
	for i, p := range presets {
		out[i] = copyScenario(p)
	}
	return out
}

// Preset returns the named scenario, reporting whether the name is known.
func Preset(name string) (Scenario, bool) {
	for _, p := range presets {
		if p.Name == name {
			return copyScenario(p), true
		}
	}
	return Scenario{}, false
}

// copyScenario detaches the scenario's slice fields so callers mutating a
// returned preset cannot corrupt the package-level table.
func copyScenario(p Scenario) Scenario {
	p.Attrs = append([]armada.AttributeSpace(nil), p.Attrs...)
	return p
}
