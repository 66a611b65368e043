package armada

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"armada/internal/core"
	"armada/internal/kautz"
)

// ErrSessionDone is returned by Session.Next once the walk has delivered
// its final page (or the session was closed).
var ErrSessionDone = errors.New("armada: session exhausted")

// Session is a query session: one paged range walk that reuses routing
// state across its pages. The first page descends the issuer's forward
// routing tree normally and the session keeps the owners it delivered to;
// every later page is seeded directly at those still ahead of the cursor, one
// message per surviving destination instead of a fresh ~log N descent
// (Stats.DescentsSaved counts the skips). On a network built with
// WithShortcutTable, page one may itself be seeded from what earlier queries
// taught the route cache (Stats.FrontierHits).
//
// Sessions are correct under churn, not merely fast: a kept owner seeds a
// page only while its slot still carries the identifier it was learned
// under, so a Join, Leave or Fail that touches one of the walk's remaining
// regions sends the next page back to the cache and then to a full descent —
// identical results, just without the saving — and churn anywhere else costs
// nothing. Pages are exact keyset pages: the concatenated pages of a session
// equal a fresh unpaged walk of the same query, whatever mix of seeded and
// descended pages produced them.
//
// A Session is not safe for concurrent use; run concurrent walks in
// separate sessions.
type Session struct {
	net *Network
	q   Query // the next page's query: OffsetID is the walk's cursor
	// tiles are the owners the last located page delivered to, ascending —
	// plus any the route cache vouched for since.
	tiles []core.Tile
	// shared reports that the page in flight asked the route cache about an
	// owner the session did not hold.
	shared bool
	done   bool
	stats  SessionStats
}

// SessionStats accumulates one session's walk costs across its pages.
type SessionStats struct {
	// Pages counts completed Next calls; Objects the matches they
	// returned; Messages the overlay messages they cost.
	Pages    int
	Objects  int
	Messages int
	// DescentsSaved counts pages that skipped their descent; FrontierHits
	// and ShortcutHits (equal: pages are ranges) the subset the network's
	// route cache seeded (WithShortcutTable) rather than the owners this
	// session kept from its own pages.
	DescentsSaved int
	FrontierHits  int
	ShortcutHits  int
}

// OpenSession opens a query session for a paged range walk. q must be a
// range query (not flood or top-k) with WithLimit set — the page size; a
// WithOffsetID cursor, when present, is the walk's starting point. An
// empty issuer is pinned to a random peer by the first page so every page
// starts from the same place. No query runs until Next.
func (n *Network) OpenSession(q Query, opts ...QueryOption) (*Session, error) {
	for _, o := range opts {
		o(&q)
	}
	if k := q.kind(); k != KindRange {
		return nil, fmt.Errorf("%w: sessions walk range queries, not %v", ErrBadQuery, k)
	}
	if q.Limit < 1 {
		return nil, fmt.Errorf("%w: a session pages its walk and needs WithLimit ≥ 1, got %d", ErrBadQuery, q.Limit)
	}
	if err := n.checkIssuer(q.Issuer); err != nil {
		return nil, err
	}
	return &Session{net: n, q: q}, nil
}

// checkIssuer fails a walk that names an issuer the network does not have, at
// its start, exactly as Do would. Pinning is run's: the first page pins an
// unnamed issuer, a later one re-pins an issuer that churned out mid-walk.
func (n *Network) checkIssuer(id string) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if _, ok := n.net.Peer(kautz.Str(id)); id != "" && !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, id)
	}
	return nil
}

// More reports whether another page remains. It is true until a Next call
// returns the walk's final page (or Close is called).
func (s *Session) More() bool { return !s.done }

// Next executes the walk's next page and returns it; the page's Stats
// carry DescentsSaved/FrontierHits when it was seeded. The page
// whose Result.NextOffsetID is empty is the last; Next afterwards returns
// ErrSessionDone. A failed page (error) does not advance the cursor and
// may be retried.
func (s *Session) Next(ctx context.Context) (*Result, error) {
	if s.done {
		return nil, ErrSessionDone
	}
	s.shared = false
	res, err := s.net.run(ctx, s.q, s)
	if err != nil {
		return nil, err
	}
	// Only the first page paid the caller's dispatch-queue wait; later
	// pages run back to back, so the stamp must not repeat.
	s.q.QueueWait = 0
	s.stats.Pages++
	s.stats.Objects += len(res.Objects)
	s.stats.Messages += res.Stats.Messages
	s.stats.DescentsSaved += res.Stats.DescentsSaved
	s.stats.FrontierHits += res.Stats.FrontierHits
	s.stats.ShortcutHits += res.Stats.ShortcutHits
	if res.NextOffsetID == "" {
		s.done = true
	} else {
		s.q.OffsetID = res.NextOffsetID
	}
	return res, nil
}

// Stats returns the session's accumulated walk costs.
func (s *Session) Stats() SessionStats { return s.stats }

// Close ends the session and releases the owners it kept; further Next
// calls return ErrSessionDone. Closing is optional — a session holds
// memory, never network resources — and idempotent.
func (s *Session) Close() {
	s.done = true
	s.tiles = nil
}

// sessionRoutes is a Session as the engine's Router: the owners its last
// page delivered to, in front of the network's route cache.
type sessionRoutes Session

// Knows answers from the session's own tiles, then from the route cache —
// whose owners it adopts, so a walk once served by the cache no longer
// depends on what the cache evicts.
func (r *sessionRoutes) Knows(t core.Tile) bool {
	i, held := slices.BinarySearchFunc(r.tiles, t.ID, func(e core.Tile, id kautz.Str) int { return cmp.Compare(e.ID, id) })
	if held && r.tiles[i].Slot == t.Slot {
		return true
	}
	if c := r.net.routes; c == nil || !c.Knows(t) {
		return false
	}
	if r.shared = true; held {
		r.tiles[i] = t // the name moved slots
	} else {
		r.tiles = slices.Insert(r.tiles, i, t)
	}
	return true
}

// Learn keeps the owners a page's descent delivered to and teaches them to
// the route cache.
func (r *sessionRoutes) Learn(owners []core.Tile) {
	r.tiles = append(r.tiles[:0], owners...)
	if c := r.net.routes; c != nil {
		c.Learn(owners)
	}
}
