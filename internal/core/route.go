package core

import (
	"context"

	"armada/internal/kautz"
)

// Seeded queries.
//
// A query's dominant fixed cost is the route-to-region descent: ~log N
// messages spent walking the issuer's forward routing tree before the first
// destination is reached, re-paid by every repeat of a hot query although the
// destinations are the same each time. Peers own prefix regions, so the
// destinations of a query are the owners that tile its region — for MIRA,
// those of them whose ranks may hold a point of the box — and an issuer that
// has learned them all can address each directly: one message and one hop
// per destination, no descent. A paged walk (see Walk) keeps the owners its
// first page located, in order, and a later page addresses only the one
// under its cursor.
//
// What an issuer has learned is a set of tiles, each the slot an owner was
// seen in and the identifier it carried there. A tile is fresh while the slot
// still carries that identifier: the cover is prefix-free, so a live peer
// named id owns exactly id·*, whatever joined, left, split or failed
// elsewhere. Every topology change renames or releases the slots it touches
// (a recycled slot comes back under another name), so freshness is one
// comparison against the live node array — no epoch, no name lookup — and
// invalidation is scoped to the regions that changed. Stale routing state can
// cost the descent it would have saved, never results.

// Tile is one learned owner: a slot and the identifier the owner carried in
// it.
type Tile struct {
	Slot int32
	ID   kautz.Str
}

// Router is issuer-side routing state: what a query asks about its
// destinations before descending, and what a descent teaches afterwards. The
// network's route cache is the one implementation.
type Router interface {
	// Knows reports whether the issuer has learned this owner: the tile's
	// identifier, in the tile's slot.
	Knows(Tile) bool
	// Learn receives the distinct owners a descent delivered to, ascending.
	// The slice is the query's own and is reused once Learn returns.
	Learn(owners []Tile)
}

// WithRouter connects this query to issuer-side routing state.
func WithRouter(r Router) QueryOption { return func(c *QueryConfig) { c.Routes = r } }

// route sends the query from the issuer to every owner it delivers to over
// the ranks of span, which lie past any cursor: directly when the query's
// Router knows them all (see seed), else — the attempt cost nothing — by the
// pruned FRT search, one descent per common-prefix subregion.
func (e *Engine) route(ctx context.Context, st *queryState, from int32, span kautz.Span) (subregions int, err error) {
	st.span = span
	if st.seeded = st.cfg.Routes != nil && e.seed(st, span); !st.seeded {
		var buf [3]kautz.Span
		parts := span.AppendSplitByFirstSymbol(e.net.K(), buf[:0])
		for _, part := range parts {
			e.enter(st, from, part)
		}
		subregions = len(parts)
	}
	return subregions, e.pump(ctx, st)
}

// maxSeedSkip bounds the owners one seeding may walk past without
// delivering to them — those a box does not meet. A sparse box, whose region
// spans many owners it never touches, is served by the descent, which prunes
// them a subtree at a time.
const maxSeedSkip = 64

// seed serves the query from what its Router has learned: it walks the live
// owners that tile span, from the owner of its low rank to the owner of its
// high one in trie order, and queues one direct message to each the query
// would deliver to — all of them or, under a box, those the descent's own
// last-hop predicate admits — provided the Router knows every one. Judging each tile against the
// live topology is what makes a learned owner fresh by construction, and is
// outcome-identical to longest-prefix matching the region's positions over
// the learned names. It reports false — what it queued withdrawn, no message
// spent — at the first destination the Router does not know; the caller then
// descends. On success the result is byte-identical to a full descent's
// (deliveries scan the same region under the same box and cursor predicates)
// and Stats differ only in cost: Messages is one per destination (the
// serving replica is chosen issuer-side: redirects cost nothing), Delay the single
// fan-out hop, Subregions 0 and DescentsSaved 1.
func (e *Engine) seed(st *queryState, span kautz.Span) bool {
	queued := len(st.queue)
	slot, ok := e.net.OwnerSlot(span.Lo)
	for skipped := 0; ok; slot, ok = e.net.Next(slot) {
		id := e.net.IDAt(slot)
		lo, top := e.net.RanksAt(slot)
		// Only MIRA's box skips an owner, by the ranks under its whole identifier.
		if st.boxPrune && !e.tree.MayHold(kautz.Span{Lo: lo, Hi: top}, st.corners) {
			if skipped++; skipped > maxSeedSkip {
				break
			}
		} else if st.cfg.Routes.Knows(Tile{Slot: slot, ID: id}) {
			st.queue = append(st.queue, msg{to: slot, span: span, depth: 1, direct: true})
		} else {
			break
		}
		if span.Hi <= top { // this owner holds the high end
			return true
		}
	}
	clear(st.queue[queued:])
	st.queue = st.queue[:queued]
	return false
}
