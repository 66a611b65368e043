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
//     predicate — a child is forwarded only while the ranks under its
//     eventual prefix, masked by each attribute's rank bits, meet the box's
//     corners masked alike (naming.Tree.MayHold): integer compares, exact
//     because the hash is monotone on every attribute.
//   - Exact-match lookup (FISSIONE routing): the degenerate region ⟨T, T⟩.
//
// The descent starts at the query issuer (no preliminary DHT routing), so a
// query's delay is bounded by the issuer's identifier length: less than
// 2·log₂N hops always and less than log₂N on average — the delay-bounded
// property the paper is named for.
//
// Strings stay at the API edge. A query's region enters as the ranks of its
// corners' ObjectIDs (naming.Tree.HashRank; a lookup's one ObjectID, ranked
// once) and travels as a kautz.Span: a message is an address pair and a rank
// interval. The first-symbol split, the entry height, the cursor clip, the
// forwarding test against a child's identifier and rank, the seeding walk and
// the delivery's clip to its owner's ranks are shifts and integer compares.
//
// A result is materialised by one rule at any attribute count: a located
// run whose owner's ranks lie inside the box (naming.Tree.Classify) is
// counted, then copied as one block; a boundary run's objects are admitted
// once into a pooled buffer, only those on a corner's leaf paying the float
// test, then copied out — into a result allocated once at its exact size.
//
// A query has one observer, QueryConfig.Trace: a Tracer the engine calls on
// the query's goroutine for each overlay message and each completed scan. A
// nil tracer costs one check per event.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

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
	// rr is the read rule's cursor: a replicated delivery is served by the
	// owner's group member it names. Shared by all queries so repeated
	// identical queries rotate through a group's replicas.
	rr atomic.Uint64
	// metrics accumulates engine-wide query cost counters; always non-nil.
	metrics *metrics
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
	// HopRedirect is a delivery the read rule redirected from the region
	// owner (from) to a serving replica (to).
	HopRedirect
	// HopSeed is one direct issuer→serving-peer send: of a seeded query,
	// whose destinations a Router knew, or of a walk's positional page.
	HopSeed
	// HopScan is one located run's completed store scan — not an overlay
	// message but the work its delivery hop set off, reported with that
	// hop's from, to and depth. One event per run actually scanned, once its
	// objects are in the result, after every message of the query or page —
	// so the time since the previous event is that scan's time (the first
	// scan's also holds the walk that sized the result).
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

// Tracer observes a query's execution: Hop is called for every overlay
// message, then for each located run's completed scan (HopScan). from is the
// processing peer, to the forward's target; deliveries have remaining == 0
// and report the peer that served the delivery as to — equal to from unless
// the read rule redirected the scan to a replica (kind HopRedirect). A
// query runs on its caller's goroutine, so its tracer is never called
// concurrently. A tracer that hands events on to another (the diagnostics
// collector does) makes a chain: the query still holds one observer.
type Tracer interface {
	Hop(kind HopKind, from, to kautz.Str, depth, remaining int)
}

// TraceFunc is a function as a Tracer; a nil TraceFunc observes nothing.
type TraceFunc func(kind HopKind, from, to kautz.Str, depth, remaining int)

// Hop calls f, if it is not nil.
func (f TraceFunc) Hop(kind HopKind, from, to kautz.Str, depth, remaining int) {
	if f != nil {
		f(kind, from, to, depth, remaining)
	}
}

// metrics are the engine's cumulative query-cost counters, shared by every
// query the engine runs and read only through the registry (see
// DescribeMetrics). Updates are lock-free atomics folded in once per
// query — from the Stats the query computed anyway, plus one add of the
// query's processed-message count — so the per-hop path touches no shared
// counter and allocates nothing (BenchmarkStep: 0 allocs/op; a lookup at
// 1,000 peers: 4 allocations in all, pinned ≤ 5 by
// TestLookupAllocCeiling).
type metrics struct {
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
	// Delay is the distribution of realized per-query hop delay.
	Delay *obs.Histogram
}

// DescribeMetrics registers the engine's counters on reg.
func (e *Engine) DescribeMetrics(reg *obs.Registry) {
	m := e.metrics
	reg.MustRegister("engine_descents_total", &m.Descents)
	reg.MustRegister("engine_seeded_queries_total", &m.Seeded)
	reg.MustRegister("engine_messages_total", &m.Messages)
	reg.MustRegister("engine_deliveries_total", &m.Deliveries)
	reg.MustRegister("engine_scheduled_ops_total", &m.Scheduled)
	reg.MustRegister("engine_hop_delay", m.Delay)
}

// note folds one finished query's stats into the cumulative counters.
func (m *metrics) note(s Stats, seeded bool) {
	if seeded {
		m.Seeded.Inc()
	} else {
		m.Descents.Inc()
	}
	m.Messages.Add(int64(s.Messages))
	m.Deliveries.Add(int64(s.Deliveries))
	m.Delay.Observe(float64(s.Delay))
}

// QueryConfig is the per-query execution configuration. The zero value runs
// a plain query. The *With entry points (LookupWith, RangeQueryWith, ...)
// take one by value; the variadic entry points fold their QueryOptions into
// one.
type QueryConfig struct {
	// Trace, when non-nil, observes every hop of the descent and every
	// located run's completed scan: the query's one observer.
	Trace Tracer
	// Limit, when positive, paginates the result: the materialise phase
	// stops at Limit matches in ascending ObjectID order (extending through
	// a run of equal ObjectIDs so cursors never split an ID) and only
	// probes forward for the first further match, so a page scans O(Limit)
	// objects in total however many destinations were located.
	// RangeResult.Next then carries the cursor for the following page.
	// Range and flood queries only.
	Limit int
	// After restricts matches to ObjectIDs strictly greater than it — the
	// cursor of keyset pagination, normally the previous page's Next. Range
	// and flood queries only.
	After kautz.Str
	// Routes, when non-nil, is issuer-side routing state the query consults
	// before descending and teaches after a descent (see Router). Lookups and
	// range queries only — the flood ablation and top-k keep their own walks.
	Routes Router
}

// QueryOption adjusts one query's configuration.
type QueryOption func(*QueryConfig)

// WithTrace installs f as this query's tracer.
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

// ReadPolicy, ReadRoundRobin and WithReadPolicy select nothing: a replicated
// delivery is always served round-robin through the owner's group (see
// deliver). They remain so that callers written against the engine that
// offered a per-query read policy (the frozen bench twin) keep compiling.
//
// Deprecated: there is one read rule; drop the option.
type ReadPolicy int

// ReadRoundRobin names the one read rule.
//
// Deprecated: see ReadPolicy.
const ReadRoundRobin ReadPolicy = 0

// WithReadPolicy selects nothing.
//
// Deprecated: see ReadPolicy.
func WithReadPolicy(ReadPolicy) QueryOption { return func(*QueryConfig) {} }

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
	hopDelay := obs.NewHistogram(1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 48)
	return &Engine{net: net, tree: tree, metrics: &metrics{Delay: hopDelay}}, nil
}

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
	// region's owner — always 0 without replication.
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
	return (float64(s.Messages) - math.Log2(float64(networkSize))) / float64(s.DestPeers-1)
}

// Match is one object of a query result — the one result object in the
// tree: the armada package exports it as armada.Object. Values is the
// result's own copy (all matches of one result share one backing array,
// each capped to its own length); ID and Name are the two halves of the
// object's stored record, one immutable string shared with the stores.
// Nothing above fissione aliases memory a store writes. The serving replica
// is not result content: Stats.ReplicaServed and HopScan events report it.
type Match struct {
	// Name is the application-level object name.
	Name string
	// Values are the attribute values the object was published with (nil
	// for exact-match-only objects).
	Values []float64
	// ID is the object's Kautz-string ObjectID.
	ID string
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

// msg is one overlay message in flight: an address pair and a rank interval,
// with no pointer (TestMsgLayout), so the collector never scans the pooled
// queue. With levels still to go (h > 0) the receiver forwards it to the
// out-neighbors whose eventual prefixes the span still reaches; at the
// destination level — a descent's last hop, or the direct send of a seeded
// query — the receiver owns part of the span and serves it. Peers are named
// by slot (fissione.Network.Slot), the address routing tables hold, so a
// forward reads integers, and one symbol of each child's identifier, from one
// dense array; only a delivery turns a slot into a *Peer. Slots are valid for
// the topology the query runs in.
type msg struct {
	span   kautz.Span // the ObjectID ranks routed: one subregion of a descent
	to     int32      // receiver's slot; the region's owner on deliveries
	h      uint8      // hops left to the destination level: 0 delivers; at most k ≤ 62
	depth  uint8      // hops from the issuer; the issuer's own seeds are at 0
	direct bool       // seeded deliveries: the issuer addressed the serving replica itself
}

// located is one delivery's product: which replica serves which ObjectID
// ranks for which owner — the routed span, past the cursor, clipped to the
// ranks under the owner's identifier. Like msg it holds no pointer
// (TestMsgLayout): peers are slots until materialise takes a store's lock.
type located struct {
	span           kautz.Span
	owner, serving int32 // slots
	pos            int32 // the owner's trie position: runs sort by it as by its identifier
	depth          uint8 // the delivery hop's depth, for the scan's trace event
	whole          bool  // materialise counted the run inside the box and re-reads it (see plan)
}

// queryState is one query's working memory: the breadth-first message
// queue and what its deliveries located. A query runs on its caller's
// goroutine, so the state needs no lock; it is pooled, and materialise
// copies out exactly what the caller keeps, so a steady query stream reuses
// the same queue and accumulation buffers.
//
// A query has two phases. Locate: the descent (or a seeded fan-out) runs
// to completion and every delivery appends one located run. Materialise:
// the runs are ordered and walked once up to the page cut — a run inside the
// box counted, a boundary run admitted into recs and col — then written into
// a slice of exactly the admitted size, in run order. Peers own disjoint
// prefix regions and one peer's deliveries cover disjoint subregions, so runs
// never interleave: ordering them is the whole merge, and a page or a top-k
// stops at what it returns.
type queryState struct {
	net      *fissione.Network // turns a run's slots into peers and identifiers
	tree     *naming.Tree      // classifies objects and owners against the box
	cfg      QueryConfig
	issuer   kautz.Str
	shape    // delivery filter; valid when hasBox
	hasBox   bool
	boxPrune bool // MIRA: forward only while the child's ranks may hold a point of box
	flood    bool // ablation: forward to every out-neighbor (see FloodQuery)
	seeded   bool // the Router knew every destination: no descent ran
	replicas bool // replicated: the rr cursor picks each delivery's serving member
	// span is the ranks being routed, past the cursor; a delivery scans the
	// part within its owner's ranks.
	span kautz.Span

	queue    []msg // FIFO; queue[head:] is still to process
	head     int
	delay    int // deepest message processed
	messages int // messages processed at depth ≥ 1 (seeds are local computation)

	runs          []located // one per delivery
	ends          []int32   // plan: the buffer's length after each walked run; build: the page's
	recs          []string  // admit: the boundary runs' admitted records, in run order, until build
	col           []float64 // admit: their rows, as wide as the box, one after another
	tiles         []Tile    // close: the runs' distinct owners, ascending
	replicaServed int       // deliveries served by a non-owner replica
	redirectMsgs  int       // replica serves that cost a redirect message (descents only)
	redirectDepth int       // deepest redirected delivery (owner depth + 1)
}

var statePool = sync.Pool{New: func() any { return new(queryState) }}

// maxPooled bounds the bytes each buffer a pooled state keeps: a flood over a
// large network queues hundreds of thousands of messages, and pinning that
// for the next 11-message lookup would be waste; a wide page's 16,384
// records stay for the next wide page.
const maxPooled = 256 << 10

// newState takes a state from the pool for one query. q, when non-nil,
// filters deliveries and — on a multi-attribute tree — prunes the descent.
// For a single attribute the region predicate already implies the box
// predicate (naming's TestContainsPrefixImpliesIntersectsSingleAttr checks
// it exhaustively), so the descent skips it.
func (e *Engine) newState(cfg QueryConfig, issuer kautz.Str, q *shape) *queryState {
	st := statePool.Get().(*queryState)
	st.net, st.tree, st.cfg, st.issuer, st.replicas = e.net, e.tree, cfg, issuer, e.net.Replicas() > 1
	if q != nil {
		st.shape, st.hasBox = *q, true
		st.boxPrune = e.tree.Attrs() > 1
	}
	return st
}

// release returns the state to the pool, dropping every reference it holds
// so a pooled state pins neither results nor departed peers: recs and tiles
// are cleared; the queue, runs, ends and col hold none.
func (st *queryState) release() {
	*st = queryState{
		queue: recycle(st.queue, false),
		runs:  recycle(st.runs, false),
		ends:  recycle(st.ends, false),
		recs:  recycle(st.recs, true),
		col:   recycle(st.col, false),
		tiles: recycle(st.tiles, true),
	}
	statePool.Put(st)
}

// recycle empties a pooled buffer for reuse, zeroing what it referenced when
// its elements hold pointers; one that pins more than maxPooled bytes is let
// go.
func recycle[T any](s []T, pointers bool) []T {
	if uintptr(cap(s))*unsafe.Sizeof(*new(T)) > maxPooled {
		return nil
	}
	if pointers {
		clear(s)
	}
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
	q, err := e.prepare(lo, hi)
	if err != nil {
		return RangeResult{}, err
	}
	span, ok := q.corners.Past(cfg.After)
	if !ok {
		return RangeResult{}, nil
	}
	if flood {
		cfg.Routes = nil
	}
	st, stats, err := e.locate(ctx, issuer, span, &q, cfg, flood)
	if err != nil {
		return RangeResult{}, err
	}
	defer st.finish()
	res := RangeResult{Stats: stats, Destinations: st.destinations()}
	res.Matches, res.Runs, res.Next = st.materialise(runs)
	return res, nil
}

// shape is a range query's geometry, mapped from its bounds once: the box and
// the ranks of its corners' ObjectIDs, ⟨LowT, HighT⟩ before any cursor, which
// PIRA's admission also reads (see admits).
type shape struct {
	box     naming.Box
	corners kautz.Span
}

// prepare maps range bounds onto their query geometry. Naming preserves the
// (partial) order, so the corners of a valid box never invert.
func (e *Engine) prepare(lo, hi []float64) (q shape, err error) {
	if e.tree == nil {
		return q, ErrNoTree
	}
	if q.box, err = e.tree.NewBox(lo, hi); err != nil {
		return q, fmt.Errorf("core: range bounds: %w", err)
	}
	if q.corners.Lo, err = e.tree.HashRank(q.box.Lo...); err == nil {
		q.corners.Hi, err = e.tree.HashRank(q.box.Hi...)
	}
	if err != nil {
		return q, fmt.Errorf("core: range region: %w", err)
	}
	return q, nil
}

// LookupResult is the outcome of an exact-match lookup.
type LookupResult struct {
	// Owner is the peer owning the looked-up ObjectID.
	Owner   kautz.Str
	Objects []Match
	Stats   Stats
}

// Lookup routes from the issuer to the peer owning objectID — FISSIONE's
// exact-match query, executed as the degenerate range ⟨objectID, objectID⟩
// — and returns the objects published under it.
func (e *Engine) Lookup(ctx context.Context, issuer kautz.Str, objectID kautz.Str, opts ...QueryOption) (*LookupResult, error) {
	if len(objectID) != e.net.K() || !kautz.Valid(objectID) {
		return nil, fmt.Errorf("%w: %q", ErrBadObjectID, objectID)
	}
	return boxed(e.LookupWith(ctx, issuer, kautz.Rank(objectID), buildQueryConfig(opts)))
}

// LookupWith is Lookup for the ObjectID of rank key, with the configuration
// given, and the result returned, by value; the owner is read off the one
// located run. A lookup is never paged: Limit and After are ignored.
func (e *Engine) LookupWith(ctx context.Context, issuer kautz.Str, key uint64, cfg QueryConfig) (LookupResult, error) {
	if cfg.Limit = 0; key >= kautz.SpaceSize(e.net.K()) {
		return LookupResult{}, fmt.Errorf("%w: rank %d", ErrBadObjectID, key)
	}
	st, stats, err := e.locate(ctx, issuer, kautz.Span{Lo: key, Hi: key}, nil, cfg, false)
	if err != nil {
		return LookupResult{}, err
	}
	defer st.finish()
	res := LookupResult{Stats: stats}
	if len(st.runs) > 0 {
		res.Owner = e.net.IDAt(st.runs[0].owner)
	}
	res.Objects, _, _ = st.materialise(false)
	return res, nil
}

// locate runs a query's first phase from the issuer over the ranks of span,
// additionally filtering (and, for MIRA, pruning) with the query's shape when
// q is non-nil, and returns the state holding the ordered located runs with
// the query's cost metrics; the caller materialises what it returns from
// them, then calls finish. flood disables the pruning.
func (e *Engine) locate(ctx context.Context, issuer kautz.Str, span kautz.Span, q *shape, cfg QueryConfig, flood bool) (*queryState, Stats, error) {
	from, ok := e.net.Slot(issuer)
	if !ok {
		return nil, Stats{}, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	st := e.newState(cfg, issuer, q)
	st.flood = flood
	subregions, err := e.route(ctx, st, from, span)
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
func (e *Engine) enter(st *queryState, issuer int32, part kautz.Span) {
	h := part.EntryHeight(e.net.K(), e.net.IDAt(issuer), e.net.RankAt(issuer))
	st.queue = append(st.queue, msg{span: part, to: issuer, h: uint8(h)})
}

// pump drains the state's queue breadth-first: messages at equal depth are
// processed in the order they were sent, so a query's hop trace is
// deterministic. It tracks the paper's two cost metrics — delay, the
// deepest message, and messages, those sent over the overlay (depth ≥ 1) —
// and bumps the engine's scheduled-message counter once, by the number
// processed. Cancelling ctx stops the run between messages: each polls its
// Done channel, which takes no lock, and only a closed one reads Err, which
// does.
func (e *Engine) pump(ctx context.Context, st *queryState) error {
	done, start := ctx.Done(), st.head
	var err error
	for st.head < len(st.queue) && err == nil {
		select {
		case <-done:
			err = fmt.Errorf("core: query aborted: %w", ctx.Err())
			continue
		default:
		}
		m := st.queue[st.head] // by value: forwards append to the queue
		st.head++
		if d := int(m.depth); d > st.delay {
			st.delay = d
		}
		if m.depth >= 1 {
			st.messages++
		}
		// A flood reaches every peer of the level; deliver only where the
		// region predicate holds, so results and destination counts stay
		// comparable with the pruned descent.
		if m.h > 0 {
			e.forward(st, m)
		} else if !st.flood || m.span.ContainsPrefix(e.net.K(), e.net.IDAt(m.to), e.net.RankAt(m.to), 0) {
			e.deliver(st, m)
		}
	}
	e.metrics.Scheduled.Add(int64(st.head - start))
	return err
}

// forward processes one descent message at a peer above the destination
// level, queueing a copy for every out-neighbor that can still reach a
// target: the ranks under the child's eventual prefix at the destination
// level must meet the region's and, for MIRA, may hold a point of the box.
// Every table entry is a live slot (fissione's Audit checks it where tables
// are written), so a surviving child is queued as read.
func (e *Engine) forward(st *queryState, m msg) {
	h, k := int(m.h)-1, e.net.K() // levels left once a child holds the message
	for _, c := range e.net.Out(m.to) {
		id := e.net.IDAt(c)
		if !st.flood {
			// The child's eventual prefix at the destination level is id[h:].
			r := e.net.RankAt(c)
			if !m.span.ContainsPrefix(k, id, r, h) {
				continue
			}
			if st.boxPrune && !e.tree.MayHold(kautz.PrefixBlock(k, id, r, h), st.corners) {
				continue
			}
		}
		if st.cfg.Trace != nil {
			st.cfg.Trace.Hop(HopForward, e.net.IDAt(m.to), id, int(m.depth), h)
		}
		st.queue = append(st.queue, msg{span: m.span, to: c, h: uint8(h), depth: m.depth + 1})
	}
}

// deliver is the locate phase's product: it appends the run the materialise
// phase will scan — the message's receiver, a destination, the replica that
// serves it and the region it scans. Destination, load
// counter, serving replica and redirect cost are all settled here; no store
// is read.
//
// On a replicated network the scan is served by the member of the owner's
// replica group that the engine's rr cursor names next, so deliveries rotate
// through the group (the owner is member 0). Every scan is
// bounded by the owner's prefix: a replica's store also carries copies of
// neighboring regions, and without the bound those objects would be returned
// both here and at their own region's delivery. Bounding makes every ObjectID
// the responsibility of exactly one delivery — which keeps flood mode and
// paginated walks exact under replication, and lets one ranking of the routed
// region serve every subregion's deliveries. A redirected
// delivery costs one extra overlay message and arrives one hop later —
// except on a seeded query, whose issuer chose the replica itself and
// addressed it directly.
func (e *Engine) deliver(st *queryState, m msg) {
	owner, depth := m.to, int(m.depth)
	// Load accounting: one delivery addressed to this owner's region,
	// whichever replica ends up serving the scan — ownership is what the
	// load controller splits and migrates.
	e.net.PeerAt(owner).NoteDelivery()
	serving := owner
	if st.replicas {
		var buf [16]int32 // replication degrees are small; avoids a heap group slice per delivery
		group := e.net.AppendGroupSlots(buf[:0], owner)
		serving = group[e.rr.Add(1)%uint64(len(group))]
	}
	if st.cfg.Trace != nil {
		if m.direct {
			st.cfg.Trace.Hop(HopSeed, st.issuer, e.net.IDAt(serving), 0, 0)
		}
		kind := HopDeliver
		if serving != owner {
			kind = HopRedirect
		}
		st.cfg.Trace.Hop(kind, e.net.IDAt(owner), e.net.IDAt(serving), depth, 0)
	}
	span := st.span.Clip(e.net.RanksAt(owner))
	st.runs = append(st.runs, located{span: span, owner: owner, serving: serving, pos: e.net.PosAt(owner), depth: m.depth})
	if serving != owner {
		st.replicaServed++
		if !m.direct {
			st.redirectMsgs++
			st.redirectDepth = max(st.redirectDepth, depth+1)
		}
	}
}
