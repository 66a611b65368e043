package core

import (
	"context"
	"fmt"

	"armada/internal/kautz"
	"armada/internal/naming"
)

// Descent frontiers.
//
// A range query's dominant fixed cost is the route-to-region descent:
// ~log N messages spent walking the issuer's forward routing tree before
// the first destination peer is reached. A paged walk re-pays that cost on
// every page, and a hot range re-pays it on every repetition, even though
// the destination set is identical each time. A Frontier captures the
// outcome of one descent — the destination peers and the subregion each
// one was delivered — so a later query over a covered region can seed
// itself directly at the surviving destinations: one overlay message per
// destination instead of a fresh descent.
//
// Correctness is epoch-based, never best-effort: a frontier records the
// fissione topology epoch it was captured at, and seeding is refused the
// moment the live epoch differs (any split, departure, crash or
// replication change bumps it). A refused frontier simply falls back to
// the full pruned descent — a stale frontier can cost messages, never
// results. Replica groups are re-resolved at delivery time (deliver →
// serveTarget), so read policies keep rotating replicas even on seeded
// deliveries.

// Frontier is the captured descent frontier of one range query: the
// topology epoch it was captured at, the (cursor-clipped) region the
// capture covered, and one entry per delivery. Values are immutable after
// capture; a Frontier may be shared by concurrent queries.
type Frontier struct {
	// Epoch is the fissione topology epoch at capture time. The frontier
	// seeds queries only while the network still reports the same epoch.
	Epoch uint64
	// Region is the query region the capture covered. The frontier can
	// seed any query whose (cursor-clipped) region it contains.
	Region kautz.Region
	// Lo and Hi are the attribute bounds the capturing query ran with.
	// The descent's box predicate prunes destinations outside them, so
	// the entries list only peers intersecting this box — a frontier may
	// therefore seed only queries whose bounds it contains (CoversBounds),
	// or a wider multi-attribute query would silently miss destinations
	// the capture never reached. (For single-attribute queries region
	// coverage already implies bounds coverage — the naming is
	// order-preserving — so this is belt over braces there.)
	Lo, Hi []float64
	// Entries lists the descent's deliveries: each destination peer and
	// the part of its own region the delivery covered. Entries follow
	// delivery order and may name one peer more than once (one entry per
	// delivered subregion, exactly as the descent produced them).
	Entries []FrontierEntry
}

// FrontierEntry is one captured delivery: the destination peer and the
// delivered region clipped to the peer's own region, so a cursor moving
// past the entry's High retires the peer from the walk.
type FrontierEntry struct {
	Peer   kautz.Str
	Region kautz.Region
}

// Covers reports whether the frontier's captured region contains r — the
// geometric half of seeding validity (the others are CoversBounds and the
// epoch check against the live network).
func (f *Frontier) Covers(r kautz.Region) bool {
	return f != nil && f.Region.Low <= r.Low && r.High <= f.Region.High
}

// CoversBounds reports whether the frontier's captured attribute bounds
// contain the query bounds [lo, hi] — required because the capture's
// descent pruned destinations outside its own box, so its entries cannot
// serve a wider one.
func (f *Frontier) CoversBounds(lo, hi []float64) bool {
	if f == nil || len(lo) != len(f.Lo) || len(hi) != len(f.Hi) {
		return false
	}
	for i := range lo {
		if lo[i] < f.Lo[i] || hi[i] > f.Hi[i] {
			return false
		}
	}
	return true
}

// WithFrontier offers a captured frontier to seed this query. The engine
// uses it only when the frontier's epoch matches the network's topology
// epoch and its region covers the query's cursor-clipped region; otherwise
// the query descends in full as if no frontier were given. Range queries
// only — flood (an ablation of descent cost) and top-k ignore it.
func WithFrontier(f *Frontier) QueryOption { return func(c *QueryConfig) { c.Frontier = f } }

// WithCaptureFrontier records the descent frontier of this query into
// RangeResult.Frontier. Captures happen only on full descents: a query
// that was itself frontier-seeded returns no new frontier (the seed
// remains valid). Range queries only.
func WithCaptureFrontier() QueryOption { return func(c *QueryConfig) { c.CaptureFrontier = true } }

// PreparedRange is a range query's precomputed geometry — the box its
// bounds map to and the (unclipped) Kautz query region. RangeRegion
// produces it; QueryConfig.Prepared hands it back to RangeQueryWith so the
// mapping is not paid twice when the caller needed the region anyway
// (frontier cache keying). The prepared geometry must come from the same
// bounds the query runs with.
type PreparedRange struct {
	Box    naming.Box
	Region kautz.Region
}

// prepare maps range bounds onto their query geometry.
func (e *Engine) prepare(lo, hi []float64) (prep PreparedRange, err error) {
	if e.tree == nil {
		return prep, ErrNoTree
	}
	if prep.Box, err = e.tree.NewBox(lo, hi); err != nil {
		return prep, fmt.Errorf("core: range bounds: %w", err)
	}
	if prep.Region, err = e.tree.QueryRegion(prep.Box); err != nil {
		return prep, fmt.Errorf("core: range region: %w", err)
	}
	return prep, nil
}

// RangeRegion maps range bounds onto their query geometry — the Kautz
// region is the key space of issuer-side frontier caching — along with
// the cursor-clipped region a query with After actually executes. ok is
// false when the cursor exhausts the region (the query's result is
// empty).
func (e *Engine) RangeRegion(lo, hi []float64, after kautz.Str) (prep PreparedRange, clipped kautz.Region, ok bool, err error) {
	if prep, err = e.prepare(lo, hi); err != nil {
		return prep, clipped, false, err
	}
	clipped, ok = clipRegionAfter(prep.Region, after)
	return prep, clipped, ok, nil
}

// frontierUsable reports whether f may seed a query over region with
// bounds [lo, hi] right now.
func (e *Engine) frontierUsable(f *Frontier, region kautz.Region, lo, hi []float64) bool {
	return f != nil && e.net.ValidEpoch(f.Epoch) && f.Covers(region) && f.CoversBounds(lo, hi)
}

// seedFromFrontier executes a range query over region by fanning out from
// the issuer directly to the frontier's surviving destinations — the
// entries whose regions still intersect the cursor-clipped region — and
// delivering there, skipping the route-to-region descent entirely. The
// result is byte-identical to a full descent's (deliveries scan the same
// clipped regions under the same box and cursor predicates); Stats differ
// only in cost: Messages is one per surviving destination (plus replica
// redirects), Delay is the single fan-out hop, Subregions is 0 (nothing
// was split) and DescentsSaved is 1.
func (e *Engine) seedFromFrontier(ctx context.Context, issuer kautz.Str, region kautz.Region, box *naming.Box, cfg QueryConfig) (*RangeResult, error) {
	if _, ok := e.net.Slot(issuer); !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	st := e.newState(cfg, box)
	defer st.release()
	for _, en := range cfg.Frontier.Entries {
		r, ok := en.Region.Intersect(region)
		if !ok {
			continue
		}
		// The epoch check froze the peer set, so every captured owner is live.
		if owner, ok := e.net.Slot(en.Peer); ok {
			st.queue = append(st.queue, msg{kind: msgDeliver, to: owner, serving: noSlot, region: r, depth: 1})
		}
	}
	return e.finishSeeded(ctx, st, issuer, HopSeed)
}
