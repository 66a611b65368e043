// Package armada is a delay-bounded range-query system for DHT-based
// peer-to-peer networks, reproducing "Delay-Bounded Range Queries in
// DHT-based Peer-to-Peer Systems" (Li, Cao, Lu, Chan, Wang, Su, Leong,
// Chan — ICDCS 2006).
//
// Armada layers order-preserving object naming and pruned search over
// FISSIONE, a constant-degree DHT built on the Kautz graph K(2,k). Any
// range query — over one attribute (PIRA) or several (MIRA) — reaches every
// matching peer within 2·log₂N hops in an N-peer network, under log₂N on
// average, regardless of the size of the query or of the attribute space.
//
// The package simulates the whole system in process: a Network is a full
// FISSIONE overlay whose peers own namespace regions, keep local routing
// tables, and exchange messages hop by hop. Query results carry the paper's
// cost metrics — hop delay, message count and destination-peer count.
//
// Every query is one Query value executed through a single entry point,
// Do, which accepts a context for cancellation:
//
//	net, err := armada.NewNetwork(2000)
//	...
//	err = net.Publish("alice", 83.5)
//	res, err := net.Do(ctx, armada.NewRange([]armada.Range{{Low: 70, High: 80}}))
//	fmt.Println(res.Stats.Delay, res.Stats.Messages, len(res.Objects))
//
// Per-query options select the issuer (WithIssuer), observe every overlay
// hop (WithTrace), or retarget the algorithm (WithTopK, WithFlood). Stream
// yields a result's objects a page at a time, holding no lock while the
// caller's loop body runs, and PublishBatch ingests many objects under one
// lock acquisition.
package armada

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"strings"
	"sync"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/loadctl"
	"armada/internal/naming"
	"armada/internal/shortcut"
)

// Errors returned by Network operations.
var (
	ErrBadArity     = errors.New("armada: value count must match the configured attributes")
	ErrBadQuery     = errors.New("armada: invalid query")
	ErrNoSuchPeer   = errors.New("armada: no such peer")
	ErrNoSuchObject = errors.New("armada: no such object")
	ErrTooSmall     = errors.New("armada: network cannot shrink below 3 peers")
)

// Network is a simulated FISSIONE overlay with Armada query processing.
//
// All operations are safe for concurrent use under a two-tier locking
// scheme. The topology lock (mu) is held exclusively only by topology
// changes — Join, Leave and Fail — and shared by everything else: queries,
// publishes and unpublishes all run under the read lock and therefore
// concurrently with one another. Store mutations serialize per peer on the
// owning peer's own lock inside the fissione layer, so publishes to
// different peers never contend and a publish never blocks a query except
// on the one peer it writes. The query engine itself is stateless — every
// query carries its own configuration — so any number of queries, traced
// or not, may run concurrently.
type Network struct {
	// mu is the topology lock: writers are Join/Leave/Fail only; queries,
	// publishes and unpublishes are readers (per-peer store locks order
	// their access to each peer's objects).
	mu   sync.RWMutex
	net  *fissione.Network
	tree *naming.Tree
	eng  *core.Engine
	// routes is the issuer-side route cache (nil without WithShortcutTable):
	// every descent's deliveries are learned into it, and lookups and range
	// queries whose destinations it knows are seeded at them in one direct
	// hop each.
	routes *shortcut.Table
	// lctl is the background load controller (nil without
	// WithLoadControl); Close stops it.
	lctl *loadctl.Controller
	// obs holds the metrics registry, the optional flight recorder and the
	// delay-bound conformance instruments; initObs wires it in NewNetwork.
	obs netObs

	// rng drives default issuer selection; it has its own mutex so peer
	// sampling never serializes behind mutations or other samplers.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewNetwork builds a network of the given number of peers (at least 3).
func NewNetwork(peers int, opts ...Option) (*Network, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if peers < 3 {
		return nil, fmt.Errorf("%w: requested %d", ErrTooSmall, peers)
	}
	var net *fissione.Network
	if cfg.balanced {
		net, err = fissione.BuildBalanced(cfg.k, peers, cfg.seed)
	} else {
		net, err = fissione.BuildRandom(cfg.k, peers, cfg.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("armada: build network: %w", err)
	}
	return assemble(net, cfg)
}

// Size returns the number of peers.
func (n *Network) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.Size()
}

// Replicas returns the network's replication degree (1 = single-owner, no
// replication).
func (n *Network) Replicas() int { return n.net.Replicas() }

// ReReplications returns the total number of objects copied between peers
// to restore replica sets after churn (always 0 without replication). The
// workload package reports its growth per run.
func (n *Network) ReReplications() int64 { return n.net.ReReplications() }

// Attributes returns the number of configured attributes.
func (n *Network) Attributes() int { return n.tree.Attrs() }

// PeerIDs returns every peer identifier (a Kautz string) in ascending
// order.
func (n *Network) PeerIDs() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ids := n.net.PeerIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// RandomPeer returns a uniformly random peer identifier. Sampling is a
// read-only operation: it shares the read lock with queries and serializes
// only on the sampler's own source.
func (n *Network) RandomPeer() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.randomPeerLocked()
}

// randomPeerLocked samples a peer; the caller holds at least the read lock.
func (n *Network) randomPeerLocked() string {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return string(n.net.RandomPeer(n.rng))
}

// Join adds one peer via FISSIONE's join protocol and returns its
// identifier.
func (n *Network) Join() (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, err := n.net.Join()
	return string(id), err
}

// Leave removes the identified peer gracefully, handing its region and
// objects to the remaining peers.
func (n *Network) Leave(peerID string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return wrapFissioneErr(n.net.Leave(kautz.Str(peerID)), peerID)
}

// Fail simulates a crash-stop of the identified peer. Without replication
// its stored objects are lost; with WithReplication(k ≥ 2) they are
// restored from surviving replicas during self-stabilization, which also
// re-establishes the namespace cover and all invariants before Fail
// returns.
func (n *Network) Fail(peerID string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return wrapFissioneErr(n.net.FailAbrupt(kautz.Str(peerID)), peerID)
}

func wrapFissioneErr(err error, peerID string) error {
	switch {
	case errors.Is(err, fissione.ErrNoSuchPeer):
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, peerID)
	case errors.Is(err, fissione.ErrTooSmall):
		return ErrTooSmall
	}
	return err
}

// Publish stores an object named name with the given attribute values (one
// per configured attribute). The object is placed on the peer owning its
// order-preserving ObjectID and becomes discoverable by range queries.
// Publishes hold only the topology read lock plus the owning peer's store
// lock, so they run concurrently with queries and with each other.
func (n *Network) Publish(name string, values ...float64) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.publishLocked(name, values)
}

// Publication is one named object for PublishBatch, with one value per
// configured attribute.
type Publication struct {
	Name   string
	Values []float64
}

// PublishBatch stores many objects under a single topology-lock
// acquisition — the bulk-ingest path. Publication i failing aborts the
// batch with an error naming i; objects before it remain published.
//
// A batch is not atomic with respect to readers: publishes land peer by
// peer — and, on a replicated network, replica by replica within each
// group — so a concurrent query may observe part of a still-running batch
// (pre-refactor, the batch held the write lock and appeared all at once).
// Callers needing all-or-nothing visibility must add their own barrier.
func (n *Network) PublishBatch(pubs []Publication) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i, p := range pubs {
		if err := n.publishLocked(p.Name, p.Values); err != nil {
			return fmt.Errorf("armada: batch publication %d: %w", i, err)
		}
	}
	return nil
}

// publishLocked places one object; the caller holds at least the topology
// read lock (the owning peer's store lock orders the write itself).
func (n *Network) publishLocked(name string, values []float64) error {
	if len(values) != n.tree.Attrs() {
		return fmt.Errorf("%w: got %d values, want %d", ErrBadArity, len(values), n.tree.Attrs())
	}
	// The record — ObjectID, then name — is the publish's one allocation: the
	// naming walk writes the ObjectID into it and returns its rank, and the
	// store copies the values into its own column.
	var rec strings.Builder
	rec.Grow(n.net.K() + len(name))
	key, err := n.tree.WriteHash(&rec, values...)
	if err != nil {
		return fmt.Errorf("armada: publish %q: %w", name, err)
	}
	rec.WriteString(name)
	_, err = n.net.PublishRec(key, rec.String(), values)
	return err
}

// Unpublish removes one object previously stored by Publish under the same
// name and attribute values, making sustained write/delete workloads
// possible without unbounded growth. It returns ErrNoSuchObject when no
// such object is stored. Duplicate publications are removed one at a time.
func (n *Network) Unpublish(name string, values ...float64) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(values) != n.tree.Attrs() {
		return fmt.Errorf("%w: got %d values, want %d", ErrBadArity, len(values), n.tree.Attrs())
	}
	key, err := n.tree.HashRank(values...)
	if err != nil {
		return fmt.Errorf("armada: unpublish %q: %w", name, err)
	}
	_, err = n.net.UnpublishKey(key, name, values)
	return n.wrapUnpublishErr(err, name)
}

// UnpublishExact removes one value-less object previously stored by
// PublishExact under name. It returns ErrNoSuchObject when absent.
func (n *Network) UnpublishExact(name string) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, err := n.net.UnpublishAt(kautz.Hash(name, n.net.K()), fissione.Object{Name: name})
	return n.wrapUnpublishErr(err, name)
}

// wrapUnpublishErr maps fissione removal errors onto the package's errors.
func (n *Network) wrapUnpublishErr(err error, name string) error {
	if errors.Is(err, fissione.ErrNoSuchObject) {
		return fmt.Errorf("%w: %q", ErrNoSuchObject, name)
	}
	return err
}

// PublishExact stores a value-less object under Kautz_hash(name) for
// exact-match lookup only.
func (n *Network) PublishExact(name string) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	oid := kautz.Hash(name, n.net.K())
	_, err := n.net.PublishAt(oid, fissione.Object{Name: name})
	return err
}

// Do executes one query and returns its full result. It is the single
// entry point behind every query kind:
//
//	res, err := net.Do(ctx, armada.NewRange([]armada.Range{{Low: 70, High: 80}}))
//	res, err := net.Do(ctx, armada.NewLookup("report.pdf"))
//	res, err := net.Do(ctx, armada.NewRange(ranges, armada.WithTopK(5)))
//
// Queries run under the network's read lock and may run concurrently with
// each other. Cancelling ctx aborts the query mid-descent; Do then returns
// an error wrapping ctx's error. A nil ctx never cancels.
func (n *Network) Do(ctx context.Context, q Query) (*Result, error) {
	return n.run(ctx, q, nil)
}

// streamPage is how many objects one page of a Stream asks for: what a
// consumer that breaks or cancels pays for and never reads (~80 µs, ~95 KB),
// set against a page's fixed cost — the lock, one direct message to the owner
// under the cursor, the result's own allocations. BENCH_micro.json has the
// drained stream against the one-shot Do over 15 owners (StreamWide,
// RangeWide) and over 250 (StreamManyOwners, RangeManyOwners).
const streamPage = 1024

// Stream executes one query and yields its objects a page at a time — the
// streaming variant of Do:
//
//	for obj, err := range net.Stream(ctx, q) {
//		if err != nil { ... }
//		use(obj)
//	}
//
// Objects arrive in the sorted order Do returns. A range or flood query is
// walked in keyset pages (a range's are a Session's: after the first, a page
// addresses only the owner under its cursor; a lookup is one page),
// each an ordinary query to the trace sink, the flight recorder, diagnostics
// and the load counters. Breaking out of the loop, or cancelling ctx, costs
// at most the page in flight: no later page runs, and nothing runs in the
// background. A terminal error — ctx's, once it is cancelled between pages —
// is yielded as the final pair. Top-k queries cannot stream (their result
// set is only known once every destination was scanned); use Do.
//
// With WithLimit(n) the stream yields the n objects with the smallest
// ObjectIDs, in order, and ends; it carries no cursor, so continuing past
// them (NextOffsetID) requires Do or a Session.
//
// No lock is held while the loop body runs: each page takes the read lock,
// copies its objects and releases it before the first of them is yielded, so
// the body may publish, unpublish, join, leave or fail peers freely, however
// slowly it runs. The stream then has keyset semantics, as a Session does:
// an object published while the loop runs is yielded if its ObjectID lies
// ahead of the cursor and not if it lies behind.
func (n *Network) Stream(ctx context.Context, q Query) iter.Seq2[Object, error] {
	return func(yield func(Object, error) bool) {
		kind := q.kind()
		if kind == KindTopK {
			yield(Object{}, fmt.Errorf("%w: top-k queries cannot stream; use Do", ErrBadQuery))
			return
		}
		if err := n.checkIssuer(q.Issuer); err != nil {
			yield(Object{}, err)
			return
		}
		// The walk is a session without OpenSession's range-only contract: a
		// cursor and a pinned issuer for every kind, a positional cursor for
		// the one kind exec walks (a flood pages statelessly). It is this
		// iteration's own: ranging the Seq again pins a fresh issuer.
		walk := Session{net: n, q: q}
		// Objects still to yield: without a limit the count starts at 0, goes
		// down, and never returns there.
		left := q.Limit
		for walk.More() {
			if kind != KindLookup { // a lookup is one unpaged call
				walk.q.Limit = streamPage
				if q.Limit != 0 {
					walk.q.Limit = min(left, streamPage)
				}
			}
			res, err := walk.Next(ctx)
			if err != nil {
				yield(Object{}, err)
				return
			}
			for _, o := range res.Objects {
				if !yield(o, nil) {
					return
				}
				if left--; left == 0 {
					return
				}
			}
		}
	}
}

// run is the one place a query takes the topology read lock: Do, every page
// of a Session and every page of a Stream come through it, so the lock is
// never held across a caller's code. It pins the issuer, then brackets exec
// with the query's observer (see queryObs) and the delay-bound sample every
// finished query contributes. sess, when non-nil, is the walk whose page q is.
func (n *Network) run(ctx context.Context, q Query, sess *Session) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	issuer := q.Issuer
	if sess != nil {
		if _, ok := n.net.Peer(kautz.Str(issuer)); !ok {
			// The walk's first page, unnamed — or the issuer it pinned churned
			// out of the network; (re-)pin. Tiles are absolute peer addresses,
			// so reuse is unaffected.
			issuer = n.randomPeerLocked()
			sess.q.Issuer = issuer
		}
	} else if issuer == "" {
		issuer = n.randomPeerLocked()
	}
	ob := n.observe(q, issuer)
	res, err := n.exec(ctx, q, issuer, sess, ob)
	var bound float64
	if err == nil {
		bound = n.noteQuery(res.Stats)
	}
	ob.finish(res, bound, err)
	return res, err
}

// exec runs one query on the engine: validate the request into an engine
// configuration, connect it to the issuer-side routing state, run it, convert
// the result. ob, when non-nil, observes it.
func (n *Network) exec(ctx context.Context, q Query, issuer string, sess *Session, ob *queryObs) (*Result, error) {
	kind := q.kind()
	pol, err := n.readPolicy(q.ReadPolicy)
	if err != nil {
		return nil, err
	}
	cfg := core.QueryConfig{Policy: pol}
	if ob != nil {
		cfg.Trace = ob.hop
	}
	if n.routes != nil { // never a nil *Table behind the interface
		cfg.Routes = n.routes
	}
	if q.Limit != 0 || q.OffsetID != "" {
		if kind != KindRange && kind != KindFlood {
			return nil, fmt.Errorf("%w: pagination (WithLimit/WithOffsetID) applies to range and flood queries, not %v", ErrBadQuery, kind)
		}
		if q.Limit < 0 {
			return nil, fmt.Errorf("%w: limit %d must be positive", ErrBadQuery, q.Limit)
		}
		if q.OffsetID != "" {
			oid := kautz.Str(q.OffsetID)
			if len(oid) != n.net.K() || !kautz.Valid(oid) {
				return nil, fmt.Errorf("%w: offset %q is not an ObjectID of this network (Kautz string of length %d)", ErrBadQuery, q.OffsetID, n.net.K())
			}
			cfg.After = oid
		}
		cfg.Limit = q.Limit
	}

	var boundsBuf [8]float64 // the engine keeps neither bounds slice: four attributes' worth stay in this frame
	switch kind {
	case KindLookup:
		var oid kautz.Str
		switch {
		case q.Name != "":
			oid = kautz.Hash(q.Name, n.net.K())
		case len(q.Values) > 0:
			if len(q.Values) != n.tree.Attrs() {
				return nil, fmt.Errorf("%w: got %d lookup values, want %d", ErrBadArity, len(q.Values), n.tree.Attrs())
			}
			var err error
			if oid, err = n.tree.Hash(q.Values...); err != nil {
				return nil, fmt.Errorf("armada: value lookup: %w", err)
			}
		default:
			return nil, fmt.Errorf("%w: lookup needs a name or attribute values", ErrBadQuery)
		}
		res, err := n.eng.LookupWith(ctx, kautz.Str(issuer), oid, cfg)
		if err != nil {
			return nil, wrapCoreErr(err)
		}
		out := &Result{Objects: res.Objects, Owner: string(res.Owner), Stats: res.Stats}
		n.routed(&out.Stats, false, n.routes != nil, ob)
		return out, nil

	case KindRange, KindFlood:
		lo, hi, err := n.bounds(q.Ranges, boundsBuf[:])
		if err != nil {
			return nil, err
		}
		var res core.RangeResult
		located, stale := kind == KindRange, false // a flood consults no routing state
		switch {
		case kind == KindFlood:
			res, err = n.eng.FloodQueryWith(ctx, kautz.Str(issuer), lo, hi, cfg)
		case sess != nil:
			res, located, stale, err = n.eng.WalkPage(ctx, &sess.walk, kautz.Str(issuer), lo, hi, cfg)
		default:
			res, err = n.eng.RangeQueryWith(ctx, kautz.Str(issuer), lo, hi, cfg)
		}
		if err != nil {
			return nil, wrapCoreErr(err)
		}
		out := resultOf(&res)
		if located { // nor does a walk's positional page
			n.routed(&out.Stats, true, n.routes != nil || stale, ob)
		}
		return out, nil

	case KindTopK:
		if q.K < 1 {
			return nil, fmt.Errorf("%w: top-k needs K ≥ 1, got %d", ErrBadQuery, q.K)
		}
		lo, hi, err := n.bounds(q.Ranges, boundsBuf[:])
		if err != nil {
			return nil, err
		}
		res, err := n.eng.TopKWith(ctx, kautz.Str(issuer), lo, hi, q.K, cfg)
		if err != nil {
			return nil, wrapCoreErr(err)
		}
		return &Result{Objects: res.Matches, Stats: res.Stats}, nil

	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrBadQuery, kind)
	}
}

// bounds converts ranges to per-attribute bound slices, both carved from buf
// when it is long enough.
func (n *Network) bounds(ranges []Range, buf []float64) (lo, hi []float64, err error) {
	m := len(ranges)
	if m != n.tree.Attrs() {
		return nil, nil, fmt.Errorf("%w: got %d ranges, want %d", ErrBadArity, m, n.tree.Attrs())
	}
	if len(buf) < 2*m {
		buf = make([]float64, 2*m)
	}
	lo, hi = buf[:m:m], buf[m:2*m]
	for i, r := range ranges {
		if r.Low > r.High {
			return nil, nil, fmt.Errorf("armada: range %d: low %v above high %v", i, r.Low, r.High)
		}
		lo[i], hi[i] = r.Low, r.High
	}
	return lo, hi, nil
}

// Topology summarizes the overlay's structure.
type Topology struct {
	Peers        int
	AvgDegree    float64
	AvgOutDegree float64
	MinIDLength  int
	MaxIDLength  int
	AvgIDLength  float64
}

// Topology returns structural statistics of the overlay.
func (n *Network) Topology() Topology {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l := n.net.IDLengths()
	return Topology{
		Peers:        n.net.Size(),
		AvgDegree:    n.net.AvgDegree(),
		AvgOutDegree: n.net.AvgOutDegree(),
		MinIDLength:  l.Min,
		MaxIDLength:  l.Max,
		AvgIDLength:  l.Avg,
	}
}

// ShortcutTableStats is a snapshot of the route cache's counters (see
// WithShortcutTable).
type ShortcutTableStats struct {
	// Hits and Misses count the lookups and range queries (session pages
	// included) that consulted the cache: seeded from it, or descended
	// despite it. Stale is how many entries were overwritten because churn
	// had given their slot another owner; Evicted how many the capacity
	// bound pushed out.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Stale   int64 `json:"stale"`
	Evicted int64 `json:"evicted"`
	// Entries is the current entry count; Capacity the configured bound,
	// both in learned owners.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// ShortcutTableStats reports the route cache's counters; ok is false when
// the network was built without WithShortcutTable.
func (n *Network) ShortcutTableStats() (_ ShortcutTableStats, ok bool) {
	if n.routes == nil {
		return ShortcutTableStats{}, false
	}
	return ShortcutTableStats(n.routes.Stats()), true
}

// routed closes a located lookup or range query: when the route cache seeded
// it, it stamps the Stats and counts the hit; when it descended, it counts the
// miss and tells the observer if issuer-side routing state — the cache, a
// walk's stale owners — was there to consult (consulted) and did not save.
func (n *Network) routed(s *Stats, ranged, consulted bool, ob *queryObs) {
	if s.DescentsSaved == 0 {
		if n.routes != nil {
			n.routes.Note(false)
		}
		if consulted {
			ob.shortcutMiss()
		}
		return
	}
	n.routes.Note(true)
	s.ShortcutHits = 1
	if ranged {
		s.FrontierHits = 1
	}
}

// Audit verifies every structural invariant of the overlay: the prefix-free
// namespace cover, the neighborhood invariant and routing-table
// consistency.
func (n *Network) Audit() error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.Audit()
}

// AuditSampled verifies the overlay's structural invariants on a
// deterministic evenly-spaced sample of roughly the given number of peers
// — the namespace cover is still checked in full — so post-run
// verification stays feasible at 100k peers. A sample of zero or at least
// the network size runs the full Audit.
func (n *Network) AuditSampled(sample int) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.AuditSampled(sample)
}

// readPolicy resolves a query's read policy against the network's
// replication configuration; ReadDefault becomes round-robin on a
// replicated network and primary otherwise.
func (n *Network) readPolicy(p ReadPolicy) (core.ReadPolicy, error) {
	switch p {
	case ReadDefault:
		if n.net.Replicas() > 1 {
			return core.ReadRoundRobin, nil
		}
		return core.ReadPrimary, nil
	case ReadPrimary:
		return core.ReadPrimary, nil
	case ReadRoundRobin:
		return core.ReadRoundRobin, nil
	case ReadLeastLoaded:
		return core.ReadLeastLoaded, nil
	default:
		return core.ReadPrimary, fmt.Errorf("%w: unknown read policy %v", ErrBadQuery, p)
	}
}

// wrapCoreErr maps engine errors onto the package's exported errors.
func wrapCoreErr(err error) error {
	if errors.Is(err, core.ErrNoSuchPeer) {
		return fmt.Errorf("%w: %v", ErrNoSuchPeer, err)
	}
	return err
}
