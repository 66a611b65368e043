// Package core implements Armada's query processing — the paper's primary
// contribution. One pruned descent of the issuer's forward routing tree
// (FRT) drives all three query types:
//
//   - PIRA (single-attribute range queries, Section 4.2): the query
//     [LowV, HighV] becomes the Kautz region ⟨LowT, HighT⟩; the region is
//     split into at most three subregions with common first symbols; each
//     descends the FRT, forwarding to an out-neighbor exactly when the
//     subregion still contains a string with the child's eventual prefix.
//   - MIRA (multi-attribute range queries, Section 5): the same descent over
//     ⟨Multiple_hash(ω1), Multiple_hash(ω2)⟩ with one extra pruning
//     predicate — a child is forwarded only while the partition-tree
//     subspace of its eventual prefix intersects the real query box Ω.
//   - Exact-match lookup (FISSIONE routing): the degenerate region ⟨T, T⟩.
//
// The descent starts at the query issuer (no preliminary DHT routing), so a
// query's delay is bounded by the issuer's identifier length: less than
// 2·log₂N hops always and less than log₂N on average — the delay-bounded
// property the paper is named for.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
	"armada/internal/obs"
)

// Errors returned by the engine.
var (
	ErrNoTree      = errors.New("core: engine has no naming tree; range queries unavailable")
	ErrNoSuchPeer  = errors.New("core: issuer is not a peer")
	ErrKMismatch   = errors.New("core: naming tree depth must equal the network's ObjectID length")
	ErrBadObjectID = errors.New("core: ObjectID must be a Kautz string of the network's length k")
)

// Engine executes Armada queries over a FISSIONE network. The engine holds
// no per-query state: every query carries its own configuration, so any
// number of queries — traced or not — may run concurrently.
// The network topology must not be mutated while a query is in flight.
type Engine struct {
	net  *fissione.Network
	tree *naming.Tree
	// rr is the round-robin read policy's cursor; shared by all queries so
	// repeated identical queries rotate through a group's replicas.
	rr atomic.Uint64
	// metrics accumulates engine-wide query cost counters; always non-nil.
	metrics *Metrics
}

// HopKind classifies one traced hop, so observers need not re-derive the
// hop's role from its remaining count.
type HopKind uint8

const (
	// HopForward is one FRT descent forward toward the destination level.
	HopForward HopKind = iota
	// HopDeliver is a delivery served by the region owner itself
	// (from == to).
	HopDeliver
	// HopRedirect is a delivery the read policy redirected from the region
	// owner (from) to a serving replica (to).
	HopRedirect
	// HopSeed is one direct issuer→serving-peer send: of a seeded query,
	// whose destinations a Router knew, or of a walk's positional page.
	HopSeed
	// HopScan is one located run's completed store scan — not an overlay
	// message but the work its delivery hop set off, reported with that
	// hop's from, to and depth. One event per run actually scanned, after
	// every message of the query (on a positional page, after the run's own
	// delivery) — so the time since the previous event is that scan's time.
	HopScan
	// NumHopKinds sizes per-kind tables.
	NumHopKinds
)

// String names the kind; diagnostics records key their stage breakdown by
// these names.
func (k HopKind) String() string {
	switch k {
	case HopForward:
		return "forward"
	case HopDeliver:
		return "deliver"
	case HopRedirect:
		return "redirect"
	case HopSeed:
		return "seed"
	case HopScan:
		return "scan"
	default:
		return "hop?"
	}
}

// TraceFunc observes one event of a query's execution — every overlay
// message, then each located run's completed scan (HopScan). from is the
// processing peer, to the forward's target; deliveries have remaining == 0
// and report the peer that served the delivery as to — equal to from unless
// a read policy redirected the scan to a replica (kind HopRedirect). A
// query runs on its caller's goroutine, so its observers are never called
// concurrently.
type TraceFunc func(kind HopKind, from, to kautz.Str, depth, remaining int)

// Metrics are the engine's cumulative query-cost counters, shared by every
// query the engine runs. Updates are lock-free atomics folded in once per
// query — from the Stats the query computed anyway, plus one add of the
// query's processed-message count — so the per-hop path touches no shared
// counter and allocates nothing (BenchmarkStep: 0 allocs/op; a lookup at
// 1,000 peers: 4 allocations in all, pinned ≤ 5 by
// TestLookupAllocCeiling).
type Metrics struct {
	// Descents counts queries that ran FRT descents; Seeded those that did
	// not: a Router knew their destinations, or a walk's cursor did.
	Descents obs.Counter
	Seeded   obs.Counter
	// Messages and Deliveries total the per-query Stats fields of the same
	// names across all queries.
	Messages   obs.Counter
	Deliveries obs.Counter
	// Scheduled counts messages the engine's pump processed — the raw
	// message volume, issuer-local seeds and direct fan-outs included.
	Scheduled obs.Counter
	// HopDelay is the distribution of realized per-query hop delay.
	HopDelay *obs.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{HopDelay: obs.NewHistogram(1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 48)}
}

// Describe registers the engine's metrics on reg.
func (m *Metrics) Describe(reg *obs.Registry) {
	reg.MustRegister("engine_descents_total", &m.Descents)
	reg.MustRegister("engine_seeded_queries_total", &m.Seeded)
	reg.MustRegister("engine_messages_total", &m.Messages)
	reg.MustRegister("engine_deliveries_total", &m.Deliveries)
	reg.MustRegister("engine_scheduled_ops_total", &m.Scheduled)
	reg.MustRegister("engine_hop_delay", m.HopDelay)
}

// note folds one finished query's stats into the cumulative counters.
func (m *Metrics) note(s Stats, seeded bool) {
	if seeded {
		m.Seeded.Inc()
	} else {
		m.Descents.Inc()
	}
	m.Messages.Add(int64(s.Messages))
	m.Deliveries.Add(int64(s.Deliveries))
	m.HopDelay.Observe(float64(s.Delay))
}

// ReadPolicy selects which member of a region's replica group serves a
// delivery. On an unreplicated network every policy is ReadPrimary.
type ReadPolicy int

const (
	// ReadPrimary always serves from the region's owner — the zero value,
	// byte-identical to the unreplicated data path.
	ReadPrimary ReadPolicy = iota
	// ReadRoundRobin rotates deliveries through the group, spreading a hot
	// region's read load evenly.
	ReadRoundRobin
	// ReadLeastLoaded serves from the group member that has served the
	// fewest region scans so far.
	ReadLeastLoaded
)

// String names the policy for reports and errors.
func (p ReadPolicy) String() string {
	switch p {
	case ReadPrimary:
		return "primary"
	case ReadRoundRobin:
		return "round-robin"
	case ReadLeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("ReadPolicy(%d)", int(p))
	}
}

// QueryConfig is the per-query execution configuration. The zero value runs
// a plain query. The *With entry points (LookupWith, RangeQueryWith, ...)
// take one by value; the variadic entry points fold their QueryOptions into
// one.
type QueryConfig struct {
	// Trace, when non-nil, observes every hop of the descent and every
	// located run's completed scan.
	Trace TraceFunc
	// Limit, when positive, paginates the result: the materialise phase
	// stops at Limit matches in ascending ObjectID order (extending through
	// a run of equal ObjectIDs so cursors never split an ID) and only
	// probes forward for the first further match, so a page scans O(Limit)
	// objects in total however many destinations were located.
	// RangeResult.Next then carries the cursor for the following page.
	// Range and flood queries only.
	Limit int
	// After restricts matches to ObjectIDs strictly greater than it — the
	// cursor of keyset pagination, normally the previous page's Next.
	After kautz.Str
	// Policy selects the replica that serves each delivery on a replicated
	// network. The zero value (ReadPrimary) preserves the unreplicated
	// data path exactly.
	Policy ReadPolicy
	// Routes, when non-nil, is issuer-side routing state the query consults
	// before descending and teaches after a descent (see Router). Lookups and
	// range queries only — the flood ablation and top-k keep their own walks.
	Routes Router
}

// QueryOption adjusts one query's configuration.
type QueryOption func(*QueryConfig)

// WithTrace installs a hop observer for this query.
func WithTrace(f TraceFunc) QueryOption { return func(c *QueryConfig) { c.Trace = f } }

// WithLimit paginates the query's result set at n matches per page (at
// ObjectID granularity: a page grows past n only to keep objects sharing
// its last ObjectID together).
func WithLimit(n int) QueryOption { return func(c *QueryConfig) { c.Limit = n } }

// WithAfter resumes a paginated query strictly after the given ObjectID.
func WithAfter(id kautz.Str) QueryOption { return func(c *QueryConfig) { c.After = id } }

// WithRunsOnly selects nothing: every result is materialised once. It
// remains so that callers written against the engine that flattened runs
// into a second slice (the frozen bench twin) keep compiling.
func WithRunsOnly() QueryOption { return func(*QueryConfig) {} }

// WithReadPolicy selects the replica-serving policy for this query.
func WithReadPolicy(p ReadPolicy) QueryOption { return func(c *QueryConfig) { c.Policy = p } }

func buildQueryConfig(opts []QueryOption) QueryConfig {
	var cfg QueryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// boxed puts a *With entry point's result behind its variadic twin's pointer.
func boxed[T any](res T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// New creates an engine. tree may be nil for an exact-match-only engine;
// otherwise its depth must equal the network's ObjectID length.
func New(net *fissione.Network, tree *naming.Tree) (*Engine, error) {
	if tree != nil && tree.K() != net.K() {
		return nil, fmt.Errorf("%w: tree k=%d, network k=%d", ErrKMismatch, tree.K(), net.K())
	}
	return &Engine{net: net, tree: tree, metrics: newMetrics()}, nil
}

// Metrics returns the engine's cumulative query-cost counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Tree returns the engine's naming tree (nil for exact-match-only engines).
func (e *Engine) Tree() *naming.Tree { return e.tree }

// Network returns the underlying FISSIONE network.
func (e *Engine) Network() *fissione.Network { return e.net }

// Stats are the cost metrics of one executed query, in the paper's units.
// The armada package exports this type as armada.Stats.
type Stats struct {
	// Delay is the hop count until the last destination peer received the
	// query. Armada guarantees Delay < 2·log₂N; the average is below log₂N.
	Delay int
	// Messages is the number of overlay messages produced by the query: the
	// descent's forwards and deliveries, or one per owner addressed directly.
	Messages int
	// DestPeers is the number of distinct peers whose regions intersect the
	// query ("Destpeers" in Section 4.3.3).
	DestPeers int
	// Subregions is how many common-prefix subregions the query's Kautz
	// region was split into (1–3).
	Subregions int
	// Deliveries counts destination arrivals, including any duplicates; it
	// equals DestPeers when each destination is reached exactly once.
	Deliveries int
	// ReplicaServed counts deliveries served by a replica other than the
	// region's owner — always 0 without replication or under ReadPrimary.
	// On a descent each redirect is included in Messages (and can extend
	// Delay by one hop), so the paper's cost metrics stay honest under
	// read spreading; on a seeded query (DescentsSaved = 1) the issuer
	// addresses the serving replica directly, so the redirect message is
	// retired.
	ReplicaServed int
	// DescentsSaved is 1 when the issuer addressed owners directly instead
	// of descending its forward routing tree: every destination, because the
	// network's route cache knew the owners that tile the region, or — a
	// walk's positional page — only the owner under the cursor and those the
	// page's scan ran on into. Messages then equals DestPeers, Delay is the
	// single hop and Subregions is 0: the saving shows up as cheaper
	// Messages/Delay, never as uncounted work.
	DescentsSaved int
	// FrontierHits is 1 when the network's route cache seeded a range query
	// (a walk's first page or re-location included) — ShortcutHits restricted
	// to ranges. The cache lives above the engine, so the armada layer stamps
	// both fields; the engine leaves them 0 (and JSON omits this one then,
	// which keeps the engine's golden file independent of it).
	FrontierHits int `json:",omitempty"`
	// ShortcutHits is 1 when the network's route cache
	// (armada.WithShortcutTable) seeded the query, lookup or range.
	// DescentsSaved is also 1.
	ShortcutHits int
}

// MesgRatio is Messages/Destpeers, the paper's per-destination message
// cost.
func (s Stats) MesgRatio() float64 {
	if s.DestPeers == 0 {
		return 0
	}
	return float64(s.Messages) / float64(s.DestPeers)
}

// IncreRatio is (Messages − log₂N)/(Destpeers − 1) for a network of n
// peers: the marginal messages per additional destination, excluding the
// roughly log₂N cost of reaching the first.
func (s Stats) IncreRatio(networkSize int) float64 {
	if s.DestPeers <= 1 {
		return 0
	}
	return (float64(s.Messages) - log2(float64(networkSize))) / float64(s.DestPeers-1)
}

// Match is one object of a query result — the one result object in the
// tree: the armada package exports it as armada.Object. Values is the
// result's own copy (all matches of one result share one backing array,
// each capped to its own length); ID and Name are the two halves of the
// object's stored record, one immutable string shared with the stores.
// Nothing above fissione aliases memory a store writes.
type Match struct {
	// Name is the application-level object name.
	Name string
	// Values are the attribute values the object was published with (nil
	// for exact-match-only objects).
	Values []float64
	// ID is the object's Kautz-string ObjectID.
	ID string
	// Peer is the identifier of the peer that served the object — the
	// region's owner unless a read policy redirected the scan to a replica.
	Peer string
}

// RangeResult is the outcome of a range query.
type RangeResult struct {
	// Matches lists the objects whose attribute values satisfy the query,
	// in ascending (ID, Name) order.
	Matches []Match
	// Runs, which only RangeQuery and FloodQuery fill, is the same result cut
	// at the located runs' boundaries: views of Matches, one per run, in order.
	Runs [][]Match
	// Destinations lists the distinct destination peers, ascending.
	Destinations []kautz.Str
	// Next is the pagination cursor: when a Limit truncated the result,
	// Next holds the highest ObjectID in Matches; executing the same query
	// with After set to it yields the following page. Empty when Matches is
	// the complete (remaining) result set.
	Next kautz.Str
	// Stats carries the query's cost metrics.
	Stats Stats
}

// msgKind tags what a queued overlay message asks of its receiving peer.
type msgKind uint8

const (
	// msgForward is a descent message with levels still to go: the receiver
	// forwards it to the out-neighbors whose eventual prefixes the region
	// can still reach.
	msgForward msgKind = iota
	// msgDeliver is an arrival at the destination level — a descent's last
	// hop, or the direct send of a seeded query: the receiver owns part of
	// the region and serves it.
	msgDeliver
)

// msg is one overlay message in flight: an address pair and a region. Peers
// are named by slot (fissione.Network.Slot), the address routing tables
// hold, so a forward reads integers and the identifiers it compares from
// one dense array; only a delivery turns a slot into a *Peer. Slots are
// valid for the topology the query runs in.
type msg struct {
	to     int32 // receiver's slot; the region's owner on deliveries
	region kautz.Region
	h      int32 // msgForward only: hops left to the destination level
	depth  int32 // hops from the issuer; the issuer's own seeds are at 0
	kind   msgKind
	direct bool // seeded deliveries: the issuer addressed the serving replica itself
}

// located is one delivery's product: which replica serves which ObjectID
// ranks for which owner — the routed region's, past the cursor, within the
// owner's prefix. No store is touched until materialise scans it.
type located struct {
	owner, serving *fissione.Peer
	span           fissione.Span
	slot           int32 // the owner's
	depth          int32 // the delivery hop's depth, for the scan's trace event
	end            int32 // materialise: the result's length once this run was scanned
}

// queryState is one query's working memory: the breadth-first message
// queue and what its deliveries located. A query runs on its caller's
// goroutine, so the state needs no lock; it is pooled, and materialise
// copies out exactly what the caller keeps, so a steady query stream reuses
// the same queue and accumulation buffers.
//
// A query has two phases. Locate: the descent (or a seeded fan-out) runs
// to completion and every delivery appends one located run. Materialise:
// the runs are ordered and scanned straight into the slice the caller
// receives. Peers own disjoint prefix regions and one peer's deliveries
// cover disjoint subregions, so runs never interleave: ordering them is
// the whole merge, and a page or a top-k stops at what it returns.
type queryState struct {
	cfg      QueryConfig
	issuer   kautz.Str
	box      naming.Box // delivery filter; valid when hasBox
	hasBox   bool
	boxPrune bool // MIRA: forward only while the child's subspace meets box
	flood    bool // ablation: forward to every out-neighbor (see FloodQuery)
	seeded   bool // the Router knew every destination: no descent ran
	replicas bool // replicated: a read policy picks each delivery's serving member
	// span is the ranks of the region being routed, past the cursor — derived
	// once a region; a delivery scans the part within its owner's prefix.
	span fissione.Span

	queue    []msg // FIFO; queue[head:] is still to process
	head     int
	delay    int // deepest message processed
	messages int // messages processed at depth ≥ 1 (seeds are local computation)

	runs          []located // one per delivery
	tiles         []Tile    // close: the runs' distinct owners, ascending
	replicaServed int       // deliveries served by a non-owner replica
	redirectMsgs  int       // replica serves that cost a redirect message (descents only)
	redirectDepth int       // deepest redirected delivery (owner depth + 1)
}

var statePool = sync.Pool{New: func() any { return new(queryState) }}

// maxPooled bounds (in elements) each buffer a pooled state keeps: a flood
// over a large network queues hundreds of thousands of messages and a
// whole-space query names every peer, and pinning that for the next
// 11-message lookup would be waste.
const maxPooled = 1 << 12

// newState takes a state from the pool for one query. box, when non-nil,
// filters deliveries and — on a multi-attribute tree — prunes the descent.
// For a single attribute the region predicate already implies the box
// predicate (naming's TestContainsPrefixImpliesIntersectsSingleAttr checks
// it exhaustively), so the descent skips it.
func (e *Engine) newState(cfg QueryConfig, issuer kautz.Str, box *naming.Box) *queryState {
	st := statePool.Get().(*queryState)
	st.cfg, st.issuer, st.replicas = cfg, issuer, e.net.Replicas() > 1
	if box != nil {
		st.box, st.hasBox = *box, true
		st.boxPrune = e.tree.Attrs() > 1
	}
	return st
}

// release returns the state to the pool, dropping every reference it holds
// so a pooled state pins neither results nor departed peers.
func (st *queryState) release() {
	*st = queryState{
		queue: recycle(st.queue),
		runs:  recycle(st.runs),
		tiles: recycle(st.tiles),
	}
	statePool.Put(st)
}

// recycle empties a pooled buffer for reuse, zeroing what it referenced; an
// oversized one is let go.
func recycle[T any](s []T) []T {
	if cap(s) > maxPooled {
		return nil
	}
	clear(s)
	return s[:0]
}

// RangeQuery executes a range query issued by the given peer: PIRA when the
// engine's naming tree has one attribute, MIRA otherwise. lo and hi carry
// one bound per attribute. Cancelling ctx aborts the descent and returns
// ctx's error.
func (e *Engine) RangeQuery(ctx context.Context, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) (*RangeResult, error) {
	return boxed(e.rangeQuery(ctx, issuer, lo, hi, buildQueryConfig(opts), false, true))
}

// RangeQueryWith is RangeQuery with the configuration given, and the result
// returned, by value and without Runs, which no caller of it reads.
func (e *Engine) RangeQueryWith(ctx context.Context, issuer kautz.Str, lo, hi []float64, cfg QueryConfig) (RangeResult, error) {
	return e.rangeQuery(ctx, issuer, lo, hi, cfg, false, false)
}

// rangeQuery runs a range query as the pruned descent or, for the flood
// ablation (FloodQuery), as the unpruned one, which consults no Router.
func (e *Engine) rangeQuery(ctx context.Context, issuer kautz.Str, lo, hi []float64, cfg QueryConfig, flood, runs bool) (RangeResult, error) {
	box, region, err := e.prepare(lo, hi)
	if err != nil {
		return RangeResult{}, err
	}
	region, ok := clipRegionAfter(region, cfg.After)
	if !ok {
		return RangeResult{}, nil
	}
	if flood {
		cfg.Routes = nil
	}
	st, stats, err := e.locate(ctx, issuer, region, &box, cfg, flood)
	if err != nil {
		return RangeResult{}, err
	}
	defer st.finish()
	res := RangeResult{Stats: stats, Destinations: st.destinations()}
	res.Matches, res.Runs, res.Next = st.materialise(runs)
	return res, nil
}

// prepare maps range bounds onto their query geometry: the box and the Kautz
// region its corners span.
func (e *Engine) prepare(lo, hi []float64) (box naming.Box, region kautz.Region, err error) {
	if e.tree == nil {
		return box, region, ErrNoTree
	}
	if box, err = e.tree.NewBox(lo, hi); err != nil {
		return box, region, fmt.Errorf("core: range bounds: %w", err)
	}
	if region, err = e.tree.QueryRegion(box); err != nil {
		return box, region, fmt.Errorf("core: range region: %w", err)
	}
	return box, region, nil
}

// clipRegionAfter shrinks a paginated query's region to ⟨succ(after),
// High⟩, reporting false when nothing remains. This is what makes keyset
// pagination cheap end to end: a later page's descent prunes every FRT
// branch at or below the cursor, so it only visits the destination peers
// that still hold unread matches instead of re-walking the whole region.
func clipRegionAfter(r kautz.Region, after kautz.Str) (kautz.Region, bool) {
	if after == "" || after < r.Low {
		return r, true
	}
	if after >= r.High {
		return kautz.Region{}, false
	}
	next, ok := kautz.Succ(after)
	if !ok {
		return kautz.Region{}, false
	}
	r.Low = next
	return r, true
}

// LookupResult is the outcome of an exact-match lookup.
type LookupResult struct {
	// Owner is the peer owning the looked-up ObjectID; each object's Peer
	// names the replica that answered the delivery — Owner unless a read
	// policy redirected it.
	Owner   kautz.Str
	Objects []Match
	Stats   Stats
}

// Lookup routes from the issuer to the peer owning objectID — FISSIONE's
// exact-match query, executed as the degenerate range ⟨objectID, objectID⟩
// — and returns the objects published under it.
func (e *Engine) Lookup(ctx context.Context, issuer kautz.Str, objectID kautz.Str, opts ...QueryOption) (*LookupResult, error) {
	return boxed(e.LookupWith(ctx, issuer, objectID, buildQueryConfig(opts)))
}

// LookupWith is Lookup with the configuration given, and the result
// returned, by value; the owner is read off the one located run.
func (e *Engine) LookupWith(ctx context.Context, issuer kautz.Str, objectID kautz.Str, cfg QueryConfig) (LookupResult, error) {
	if len(objectID) != e.net.K() || !kautz.Valid(objectID) {
		return LookupResult{}, fmt.Errorf("%w: %q", ErrBadObjectID, objectID)
	}
	st, stats, err := e.locate(ctx, issuer, kautz.Region{Low: objectID, High: objectID}, nil, cfg, false)
	if err != nil {
		return LookupResult{}, err
	}
	defer st.finish()
	res := LookupResult{Stats: stats}
	if len(st.runs) > 0 {
		res.Owner = st.runs[0].owner.ID()
	}
	res.Objects, _, _ = st.materialise(false)
	return res, nil
}

// locate runs a query's first phase from the issuer over the query region,
// additionally filtering (and, for MIRA, pruning) with the box when box is
// non-nil, and returns the state holding the ordered located runs with the
// query's cost metrics; the caller materialises what it returns from them,
// then calls finish. flood disables the pruning.
func (e *Engine) locate(ctx context.Context, issuer kautz.Str, region kautz.Region, box *naming.Box, cfg QueryConfig, flood bool) (*queryState, Stats, error) {
	from, ok := e.net.Slot(issuer)
	if !ok {
		return nil, Stats{}, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	st := e.newState(cfg, issuer, box)
	st.flood = flood
	subregions, err := e.route(ctx, st, from, region)
	if err != nil {
		st.release()
		return nil, Stats{}, err
	}
	return st, e.close(st, subregions), nil
}

// finish closes a located query once its result is built: a descent teaches
// the Router the owners it delivered to; the state returns to the pool.
func (st *queryState) finish() {
	if st.cfg.Routes != nil && !st.seeded {
		st.cfg.Routes.Learn(st.tiles)
	}
	st.release()
}

// enter queues the descent's entry message for one common-prefix subregion:
// local computation at the issuer (depth 0), as many levels above the
// subregion's destination level as the issuer's identifier does not
// already overlap the subregion's common prefix.
func (st *queryState) enter(issuer int32, part kautz.Region) {
	h := len(st.issuer) - kautz.OverlapSuffixPrefix(st.issuer, part.CommonPrefix())
	st.queue = append(st.queue, descentMsg(issuer, part, h, 0))
}

// descentMsg is the descent message that reaches slot to with h levels
// still to go: a forward above the destination level, a delivery at it.
func descentMsg(to int32, region kautz.Region, h int, depth int32) msg {
	kind := msgForward
	if h == 0 {
		kind = msgDeliver
	}
	return msg{kind: kind, to: to, region: region, h: int32(h), depth: depth}
}

// pump drains the state's queue breadth-first: messages at equal depth are
// processed in the order they were sent, so a query's hop trace is
// deterministic. It tracks the paper's two cost metrics — delay, the
// deepest message, and messages, those sent over the overlay (depth ≥ 1) —
// and bumps the engine's scheduled-message counter once, by the number
// processed. Cancelling ctx stops the run between messages. A nil ctx
// never cancels.
func (e *Engine) pump(ctx context.Context, st *queryState) error {
	if ctx == nil {
		ctx = context.Background()
	}
	start := st.head
	var err error
	for st.head < len(st.queue) {
		if err = ctx.Err(); err != nil {
			err = fmt.Errorf("core: query aborted: %w", err)
			break
		}
		m := st.queue[st.head] // by value: forwards append to the queue
		st.head++
		if d := int(m.depth); d > st.delay {
			st.delay = d
		}
		if m.depth >= 1 {
			st.messages++
		}
		switch m.kind {
		case msgForward:
			e.forward(st, m)
		case msgDeliver:
			// A flood reaches every peer of the level; deliver only where
			// the region predicate holds, so results and destination
			// counts stay comparable with the pruned descent.
			if !st.flood || m.region.ContainsPrefix(e.net.IDAt(m.to)) {
				e.deliver(st, m)
			}
		}
	}
	e.metrics.Scheduled.Add(int64(st.head - start))
	return err
}

// forward processes one descent message at a peer above the destination
// level, queueing a copy for every out-neighbor that can still reach a
// target: the child's eventual prefix at the destination level must lie in
// the region and, for MIRA, its subspace must meet the box. Every table
// entry is a live slot (fissione's Audit checks it where tables are
// written), so a surviving child is queued as read.
func (e *Engine) forward(st *queryState, m msg) {
	h := int(m.h) - 1 // levels left once a child holds the message
	for _, c := range e.net.Out(m.to) {
		id := e.net.IDAt(c)
		if !st.flood {
			ep := id.Drop(h) // the child's eventual prefix at the destination level
			if !m.region.ContainsPrefix(ep) {
				continue
			}
			if st.boxPrune && !e.prefixIntersectsBox(ep, st.box) {
				continue
			}
		}
		if st.cfg.Trace != nil {
			st.cfg.Trace(HopForward, e.net.IDAt(m.to), id, int(m.depth), h)
		}
		st.queue = append(st.queue, descentMsg(c, m.region, h, m.depth+1))
	}
}

// prefixIntersectsBox applies MIRA's subspace predicate, truncating
// prefixes that exceed the tree depth.
func (e *Engine) prefixIntersectsBox(prefix kautz.Str, box naming.Box) bool {
	if len(prefix) > e.tree.K() {
		prefix = prefix[:e.tree.K()]
	}
	ok, err := e.tree.IntersectsPrefix(prefix, box)
	return err == nil && ok
}

// deliver is the locate phase's product: it appends the run the materialise
// phase will scan — the message's receiver, a destination, the replica that
// serves it and the region it scans. Destination, load
// counters, read policy and redirect cost are all settled here; no store is
// read.
//
// On a replicated network the scan may be served by any member of the
// owner's replica group, chosen by the query's read policy. Every scan is
// bounded by the owner's prefix: a replica's store also carries copies of
// neighboring regions, and without the bound those objects would be returned
// both here and at their own region's delivery. Bounding makes every ObjectID
// the responsibility of exactly one delivery — which keeps flood mode and
// paginated walks exact under replication, and lets one ranking of the routed
// region serve every subregion's deliveries. A redirected
// delivery costs one extra overlay message and arrives one hop later —
// except on a seeded query, whose issuer applied the policy itself and
// addressed the replica directly.
func (e *Engine) deliver(st *queryState, m msg) {
	owner, depth := e.net.PeerAt(m.to), int(m.depth)
	// Load accounting: one delivery addressed to this owner's region,
	// whichever replica ends up serving the scan — ownership is what the
	// load controller splits and migrates.
	owner.NoteDelivery()
	serving := owner
	if st.replicas {
		if st.cfg.Policy != ReadPrimary {
			var buf [16]*fissione.Peer // replication degrees are small; avoids a heap group slice per delivery
			group := e.net.AppendGroupPeers(buf[:0], m.to)
			serving = group[e.choose(group, st.cfg.Policy)]
		}
		serving.NoteServed()
	}
	if st.cfg.Trace != nil {
		if m.direct {
			st.cfg.Trace(HopSeed, st.issuer, serving.ID(), 0, 0)
		}
		kind := HopDeliver
		if serving != owner {
			kind = HopRedirect
		}
		st.cfg.Trace(kind, owner.ID(), serving.ID(), depth, 0)
	}
	span := st.span.Clip(kautz.PrefixRanks(owner.ID(), e.net.K()))
	st.runs = append(st.runs, located{owner: owner, serving: serving, span: span, slot: m.to, depth: m.depth})
	if serving != owner {
		st.replicaServed++
		if !m.direct {
			st.redirectMsgs++
			st.redirectDepth = max(st.redirectDepth, depth+1)
		}
	}
}

// choose applies a read policy to a replica group (owner first), returning
// the serving member's index.
func (e *Engine) choose(group []*fissione.Peer, pol ReadPolicy) (serving int) {
	switch pol {
	case ReadRoundRobin:
		serving = int(e.rr.Add(1) % uint64(len(group)))
	case ReadLeastLoaded:
		for i, p := range group {
			if p.ServedReads() < group[serving].ServedReads() {
				serving = i
			}
		}
	}
	return serving
}

func log2(x float64) float64 { return math.Log2(x) }
