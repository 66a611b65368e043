package core

import (
	"armada/internal/fissione"
	"armada/internal/kautz"
)

// Shortcut routing.
//
// A frontier (frontier.go) reuses the outcome of one specific descent; a
// shortcut route reuses ownership facts learned across all of them. The
// issuer-side table (internal/shortcut) maps peer identifiers to owners
// and replica groups; when its fresh entries tile a query's region, the
// issuer addresses every destination directly — one message and one hop
// per destination, no FRT walk. Unlike frontier seeding, the serving
// replica is chosen at the issuer from the learned group, so a read
// policy costs no redirect message on a shortcut-routed query.
//
// Validation is belt over braces: the route was assembled against the
// live topology epoch under the same read lock the query runs under, and
// seedFromShortcut still re-verifies locally — every owner exists and the
// owners' own regions exactly tile the query region — before a single
// message is spent. A route that fails any check is discarded and the
// query descends in full: a stale shortcut costs zero extra messages.

// ShortcutTarget is one learned destination of a shortcut route: the
// region owner and, on a replicated network, its replica group (owner
// first; nil or single-element means the owner serves).
type ShortcutTarget struct {
	Owner kautz.Str
	Group []kautz.Str
}

// ShortcutRoute is a learned cover of a query region: targets whose own
// regions tile the (cursor-clipped) region in ascending order.
type ShortcutRoute struct {
	Targets []ShortcutTarget
}

// WithShortcutRoute offers a learned shortcut route for this query. The
// engine uses it only after re-verifying that the targets' own regions
// exactly tile the query's cursor-clipped region on the live topology;
// otherwise the query descends in full as if no route were given. Lookup
// and single-attribute (PIRA) range queries only — a MIRA descent prunes
// destinations with the box subspace predicate the table cannot express,
// and flood/top-k keep their own walks.
func WithShortcutRoute(r ShortcutRoute) QueryOption {
	return func(c *QueryConfig) { c.Shortcut = r }
}

// seedFromShortcut queues a shortcut-routed query's sends: one direct
// message from the issuer to the serving peer of each of the route's
// targets, skipping the descent. It reports false — with nothing queued and
// zero messages spent — when the query carries no route or the route fails
// re-validation; the caller then descends normally. On success the result
// is byte-identical to a full descent's (deliveries scan the same clipped
// regions under the same box and cursor predicates); Stats differ only in
// cost: Messages is one per destination (the serving replica was chosen
// issuer-side, so redirects cost nothing), Delay is the single fan-out
// hop, Subregions is 0 and DescentsSaved and ShortcutHits are 1.
func (e *Engine) seedFromShortcut(st *queryState, region kautz.Region) bool {
	// MIRA prunes destinations inside the region with the box subspace
	// predicate; a region tiling would over-deliver. Descend instead.
	if st.boxPrune {
		return false
	}
	cur := region.Low
	for _, t := range st.cfg.Shortcut.Targets {
		owner, ok := e.net.Slot(t.Owner)
		if !ok || !cur.HasPrefix(t.Owner) {
			break // unknown owner, or the learned cover no longer tiles the region contiguously
		}
		slice, ok := clipToOwn(region, t.Owner)
		if !ok {
			break
		}
		st.queue = append(st.queue, msg{
			kind:    msgDeliver,
			to:      owner,
			serving: e.pickServing(owner, t.Group, st.cfg.Policy),
			region:  slice,
			depth:   1,
		})
		if slice.High == region.High {
			return true // the owner's region reaches the query's high end: covered
		}
		next, ok := kautz.Succ(slice.High)
		if !ok {
			break
		}
		cur = next
	}
	clear(st.queue)
	st.queue = st.queue[:0]
	return false
}

// pickServing chooses the replica that will serve one shortcut delivery
// from the learned group, applying the query's read policy at the issuer —
// which is why deliver charges it no redirect (the descent path resolves
// the same choice at delivery; see serveTarget). It falls back to the owner
// whenever the group cannot be resolved — unreplicated networks,
// ReadPrimary, or a learned member that no longer exists.
func (e *Engine) pickServing(owner int32, group []kautz.Str, pol ReadPolicy) int32 {
	if e.net.Replicas() == 1 || pol == ReadPrimary || len(group) < 2 {
		return owner
	}
	var (
		slotBuf [16]int32
		peerBuf [16]*fissione.Peer
	)
	slots, peers := slotBuf[:0], peerBuf[:0]
	for _, id := range group {
		s, ok := e.net.Slot(id)
		if !ok {
			return owner
		}
		slots, peers = append(slots, s), append(peers, e.net.PeerAt(s))
	}
	return slots[e.choose(peers, pol)]
}
