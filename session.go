package armada

import (
	"context"
	"errors"
	"fmt"

	"armada/internal/core"
	"armada/internal/kautz"
)

// ErrSessionDone is returned by Session.Next once the walk has delivered
// its final page (or the session was closed).
var ErrSessionDone = errors.New("armada: session exhausted")

// Session is a query session: one paged range walk with a positional cursor
// over the owners it located. The first page is an ordinary range query — a
// descent of the issuer's forward routing tree, or on a network built with
// WithShortcutTable a fan-out seeded by the route cache (Stats.FrontierHits) —
// and the session keeps the query's geometry and, in order, the owners that
// page delivered to. A later page addresses the owner under the cursor alone —
// one direct message, one scan from the cursor — and the next owner only when
// that run drained before the page was full or before a further match proved
// there is a next page. Its Stats (see Stats.DescentsSaved), its Destinations
// and the delivery counters it moves are those owners' alone.
//
// Sessions are correct under churn, not merely fast: a kept owner is addressed
// only while its slot still carries the identifier it was located under —
// exactly while it still owns that identifier's region. A Join, Leave, Fail,
// split or migration that changes who owns the region under the cursor renames
// or releases that slot, and the page that meets it re-locates the remainder
// past the cursor like any Do (route cache, then a descent) and keeps the
// owners that found; churn anywhere else costs nothing. Pages are exact keyset
// pages: concatenated, they equal a fresh unpaged walk of the same query.
//
// A Session is not safe for concurrent use; run concurrent walks in
// separate sessions.
type Session struct {
	net   *Network
	q     Query     // the next page's query: OffsetID is the walk's cursor
	walk  core.Walk // geometry and the located owners not yet behind the cursor
	done  bool
	stats SessionStats
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
	// route cache seeded (WithShortcutTable) — the first page and re-locations
	// — rather than the session's own positional cursor.
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

// Next executes the walk's next page and returns it; the page's Stats carry
// DescentsSaved when it skipped the descent and FrontierHits when the route
// cache is what saved it. The page whose Result.NextOffsetID is empty is the
// last; Next afterwards returns ErrSessionDone. A failed page (error) does
// not advance the cursor and may be retried.
func (s *Session) Next(ctx context.Context) (*Result, error) {
	if s.done {
		return nil, ErrSessionDone
	}
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
	s.q.OffsetID, s.done = res.NextOffsetID, res.NextOffsetID == ""
	return res, nil
}

// Stats returns the session's accumulated walk costs.
func (s *Session) Stats() SessionStats { return s.stats }

// Close ends the session and releases the owners it kept; further Next
// calls return ErrSessionDone. Closing is optional — a session holds
// memory, never network resources — and idempotent.
func (s *Session) Close() {
	s.done = true
	s.walk = core.Walk{}
}
