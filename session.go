package armada

import (
	"context"
	"errors"
	"fmt"

	"armada/internal/core"
	"armada/internal/kautz"
	"armada/internal/session"
)

// ErrSessionDone is returned by Session.Next once the walk has delivered
// its final page (or the session was closed).
var ErrSessionDone = errors.New("armada: session exhausted")

// Session is a query session: one paged range walk that reuses routing
// state across its pages. The first page descends the issuer's forward
// routing tree normally and captures the descent frontier — the
// destination peers and the subregion delivered to each; every later page
// is seeded directly at the frontier peers still ahead of the cursor, one
// message per surviving destination instead of a fresh ~log N descent
// (Stats.DescentsSaved counts the skips). On a network built with
// WithFrontierCache, page one may itself be seeded from a frontier a
// previous query over a covering region captured (Stats.FrontierHits).
//
// Sessions are correct under churn, not merely fast: a frontier carries
// the topology epoch it was captured at, and any Join, Leave or Fail bumps
// the epoch, so the next page falls back to a full descent and re-captures
// — identical results, just without the saving. Pages are exact keyset
// pages: the concatenated pages of a session equal a fresh unpaged walk of
// the same query, whatever mix of seeded and fallback pages produced them.
//
// A Session is not safe for concurrent use; run concurrent walks in
// separate sessions.
type Session struct {
	net      *Network
	q        Query // base query; OffsetID is overwritten per page
	frontier *core.Frontier
	offset   string
	done     bool
	stats    SessionStats
}

// SessionStats accumulates one session's walk costs across its pages.
type SessionStats struct {
	// Pages counts completed Next calls; Objects the matches they
	// returned; Messages the overlay messages they cost.
	Pages    int
	Objects  int
	Messages int
	// DescentsSaved counts pages that skipped their descent — seeded from
	// a frontier or routed by the shortcut table; FrontierHits is the
	// subset whose frontier came from the network's shared cache rather
	// than this session's own capture, ShortcutHits the subset the
	// learned shortcut table routed (WithShortcutTable).
	DescentsSaved int
	FrontierHits  int
	ShortcutHits  int
}

// OpenSession opens a query session for a paged range walk. q must be a
// range query (not flood or top-k) with WithLimit set — the page size; a
// WithOffsetID cursor, when present, is the walk's starting point. An
// empty issuer is pinned to a random peer at open so every page starts
// from the same place. No query runs until Next.
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
	if q.Issuer == "" {
		q.Issuer = n.RandomPeer()
	} else if !n.hasPeer(q.Issuer) {
		// A bad issuer fails loudly here, exactly as Do would; Next's
		// re-pin is reserved for issuers that churn out mid-session.
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, q.Issuer)
	}
	return &Session{net: n, q: q, offset: q.OffsetID}, nil
}

// hasPeer reports whether the identified peer currently exists.
func (n *Network) hasPeer(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.net.Peer(kautz.Str(id))
	return ok
}

// More reports whether another page remains. It is true until a Next call
// returns the walk's final page (or Close is called).
func (s *Session) More() bool { return !s.done }

// Next executes the walk's next page and returns it; the page's Stats
// carry DescentsSaved/FrontierHits when it was frontier-seeded. The page
// whose Result.NextOffsetID is empty is the last; Next afterwards returns
// ErrSessionDone. A failed page (error) does not advance the cursor and
// may be retried.
func (s *Session) Next(ctx context.Context) (*Result, error) {
	if s.done {
		return nil, ErrSessionDone
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := s.net
	n.mu.RLock()
	defer n.mu.RUnlock()
	if _, ok := n.net.Peer(kautz.Str(s.q.Issuer)); !ok {
		// The pinned issuer churned out of the network; re-pin. Frontier
		// entries are absolute peer addresses, so reuse is unaffected.
		s.q.Issuer = n.randomPeerLocked()
	}
	q := s.q
	q.OffsetID = s.offset
	fr := &frontierExec{seed: s.frontier, wantCapture: true}
	res, err := n.do(ctx, q, q.Issuer, nil, fr)
	if err != nil {
		return nil, err
	}
	// Only the first page paid the caller's dispatch-queue wait; later
	// pages run back to back, so the stamp must not repeat.
	s.q.QueueWait = 0
	if fr.used != nil {
		s.frontier = fr.used
	}
	s.stats.Pages++
	s.stats.Objects += len(res.Objects)
	s.stats.Messages += res.Stats.Messages
	s.stats.DescentsSaved += res.Stats.DescentsSaved
	s.stats.FrontierHits += res.Stats.FrontierHits
	s.stats.ShortcutHits += res.Stats.ShortcutHits
	if res.NextOffsetID == "" {
		s.done = true
	} else {
		s.offset = res.NextOffsetID
	}
	return res, nil
}

// Stats returns the session's accumulated walk costs.
func (s *Session) Stats() SessionStats { return s.stats }

// Close ends the session and releases its captured frontier; further Next
// calls return ErrSessionDone. Closing is optional — a session holds
// frontier memory, never network resources — and idempotent.
func (s *Session) Close() {
	s.done = true
	s.frontier = nil
}

// frontierExec threads frontier reuse through one range execution in
// Network.do: seed is the caller-held candidate tried first (a session's
// own frontier), then the network's shared cache; a full descent captures
// a replacement. used reports which frontier the walk holds afterwards.
type frontierExec struct {
	seed *core.Frontier // candidate frontier; may be nil or stale
	// wantCapture requests a capture even mid-walk (cursored): sessions
	// adopt mid-walk captures for their remaining pages, while a plain
	// cursored Do could neither reuse nor cache one — capturing there
	// would be pure waste.
	wantCapture bool
	used        *core.Frontier // the frontier that seeded, or the fresh capture
}

// runFrontierRange executes one range query with frontier reuse: it
// resolves the candidate frontier (fr.seed, then the shared cache),
// requests capture on full descents, updates the cache, and stamps
// Stats.FrontierHits on the out result. cfg is the engine configuration
// assembled so far and ob the query's observer (nil when unobserved); the
// caller holds the read lock.
func (n *Network) runFrontierRange(ctx context.Context, issuer string, lo, hi []float64, offsetID string, fr *frontierExec, cfg core.QueryConfig, ob *queryObs) (*core.RangeResult, error) {
	prep, clipped, remains, err := n.eng.RangeRegion(lo, hi, kautz.Str(offsetID))
	if err != nil {
		return nil, wrapCoreErr(err)
	}
	cfg.Prepared = prep
	var (
		key       string
		cand      *core.Frontier
		fromCache bool // cand came from the shared cache
	)
	if remains {
		key = session.Key(prep.Region)
		epoch := n.net.Epoch()
		if cand = fr.seed; cand != nil &&
			(cand.Epoch != epoch || !cand.Covers(clipped) || !cand.CoversBounds(lo, hi)) {
			if cand.Epoch != epoch {
				ob.staleFrontier()
			}
			cand = nil
		}
		if cand == nil && n.fcache != nil {
			f, ok, stale := n.fcache.Lookup(key, clipped, lo, hi, epoch)
			if stale {
				ob.staleFrontier()
			}
			if ok {
				cand, fromCache = f, true
			}
		}
		if cand != nil {
			cfg.Frontier = cand
		} else {
			// No frontier covers this query; offer the learned shortcut
			// table before resigning to a descent. Single-attribute only:
			// a MIRA descent prunes destinations with the box subspace
			// predicate, which a region tiling cannot express.
			if n.stable != nil && n.tree.Attrs() == 1 {
				ob.shortcutEligible()
				cfg.Shortcut = n.shortcutRoute(clipped)
			}
			if offsetID == "" || fr.wantCapture {
				// A seeded query never captures; only request (and pay
				// for) capture when a descent may run AND someone can use
				// the result — the cache (cursor-free queries) or a
				// session.
				cfg.CaptureFrontier = true
			}
		}
	}
	res, err := n.eng.RangeQueryWith(ctx, kautz.Str(issuer), lo, hi, cfg)
	if err != nil {
		return nil, wrapCoreErr(err)
	}
	if res.Stats.DescentsSaved > 0 {
		fr.used = cand
		if fromCache {
			res.Stats.FrontierHits = 1
		}
	} else {
		fr.used = res.Frontier
		if res.Frontier != nil {
			ob.frontierCaptured(len(res.Frontier.Entries))
		}
		// Only cursor-free captures enter the cache: they cover the whole
		// query region, so later queries over it (or anything inside it)
		// can seed from them. A mid-walk capture covers only the region
		// past its cursor — valuable to its session, useless to share.
		if n.fcache != nil && res.Frontier != nil && offsetID == "" {
			n.fcache.Insert(key, res.Frontier)
		}
	}
	return res, nil
}
