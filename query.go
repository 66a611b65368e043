package armada

import (
	"fmt"
	"time"

	"armada/internal/core"
)

// QueryKind identifies the query algorithm a Query requests.
type QueryKind int

// Query kinds. The zero kind is inferred by Do: KindLookup when Name is
// set, KindTopK when K is set, KindRange otherwise.
const (
	// KindLookup is an exact-match lookup of a name (FISSIONE routing).
	KindLookup QueryKind = iota + 1
	// KindRange is a range query: PIRA over one attribute, MIRA over
	// several.
	KindRange
	// KindTopK returns the K objects with the largest first-attribute
	// values inside the ranges.
	KindTopK
	// KindFlood is the unpruned FRT flood — an ablation that returns the
	// same results as KindRange at a much higher message cost. It exists
	// to measure the value of pruning; do not use it for real queries.
	KindFlood
)

// String names the kind for errors and logs.
func (k QueryKind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindRange:
		return "range"
	case KindTopK:
		return "top-k"
	case KindFlood:
		return "flood"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// ReadPolicy selects which member of a replica group serves each delivery
// of a query on a replicated network (see WithReplication) — the engine's
// own policy, by alias. On an unreplicated network every policy behaves
// like ReadPrimary.
type ReadPolicy = core.ReadPolicy

const (
	// ReadDefault uses the network's default: round-robin when the network
	// replicates, primary-only otherwise.
	ReadDefault = core.ReadDefault
	// ReadPrimary always serves from the region's owner, exactly like an
	// unreplicated network.
	ReadPrimary = core.ReadPrimary
	// ReadRoundRobin rotates deliveries through each region's replica
	// group, spreading hot-region read load.
	ReadRoundRobin = core.ReadRoundRobin
	// ReadLeastLoaded serves each delivery from the group member that has
	// served the fewest scans so far.
	ReadLeastLoaded = core.ReadLeastLoaded
)

// Hop is one observed overlay message of a traced query.
type Hop struct {
	// From is the peer that processed the message; To is the forward's
	// target. A delivery (the query reaching a destination peer) has
	// Remaining == 0; its To names the replica that served it — equal to
	// From unless a read policy redirected the scan.
	From, To string
	// Depth is the hop count from the issuer; Remaining is the number of
	// hops left to the destination level of the forward routing tree.
	Depth, Remaining int
}

// Query is one self-contained query request, executed by Network.Do or
// Network.Stream. A Query holds no references into the network, so the same
// value may be executed any number of times, concurrently, on any network.
//
// Build one with NewLookup or NewRange plus options, or fill the fields
// directly.
type Query struct {
	// Kind selects the algorithm. Zero is inferred: KindLookup when Name
	// is set, KindTopK when K is set, KindRange otherwise.
	Kind QueryKind
	// Name is the exact-match target (KindLookup only): the lookup routes
	// to Kautz_hash(Name), where PublishExact stores value-less objects.
	Name string
	// Values is the exact-match target as an attribute-value point
	// (KindLookup with an empty Name): the lookup routes to the ObjectID
	// the order-preserving naming assigns to these values — where Publish
	// stores its objects — and returns every object published under it.
	Values []float64
	// Ranges carries one queried interval per configured attribute
	// (all kinds except KindLookup).
	Ranges []Range
	// Issuer is the peer the query starts from; empty means a uniformly
	// random peer.
	Issuer string
	// K is the result limit for KindTopK.
	K int
	// Limit, when positive, paginates a range or flood query: the result
	// carries at most Limit objects (extending through objects sharing the
	// final ObjectID, so a page never splits an ID) and NextOffsetID holds
	// the cursor for the following page. A page scans O(Limit) objects in
	// all, however many destination peers the query reaches.
	Limit int
	// OffsetID resumes a paginated query: only objects with ObjectID
	// strictly greater than it match. Pass a previous Result's
	// NextOffsetID.
	OffsetID string
	// ReadPolicy selects the replica serving each delivery on a replicated
	// network. Zero (ReadDefault) means the network's default.
	ReadPolicy ReadPolicy
	// Trace, when non-nil, observes every overlay message of the query, in
	// processing order, on the goroutine executing the query.
	Trace func(Hop)
	// QueueWait reports how long the caller held this query in a dispatch
	// queue before executing it. It never changes execution; on a network
	// built WithDiagnostics the classifier uses it to separate queued-up
	// operations (queue-wait) from genuinely slow ones, and slow-query
	// records carry it. The workload runner stamps it on every operation
	// it dispatches.
	QueueWait time.Duration
}

// QueryOption adjusts one Query.
type QueryOption func(*Query)

// WithIssuer makes the query start from the identified peer instead of a
// random one.
func WithIssuer(id string) QueryOption { return func(q *Query) { q.Issuer = id } }

// WithTrace installs a hop observer on the query; fn runs on the goroutine
// executing the query.
func WithTrace(fn func(Hop)) QueryOption { return func(q *Query) { q.Trace = fn } }

// WithTopK turns a range query into a top-k query returning at most k
// objects with the largest first-attribute values.
func WithTopK(k int) QueryOption {
	return func(q *Query) {
		q.Kind = KindTopK
		q.K = k
	}
}

// WithFlood turns a range query into the unpruned flood ablation.
func WithFlood() QueryOption { return func(q *Query) { q.Kind = KindFlood } }

// WithLimit paginates a range or flood query at n objects per page. The
// page may exceed n only to keep objects sharing its last ObjectID
// together, so the NextOffsetID cursor never skips or repeats an object.
func WithLimit(n int) QueryOption { return func(q *Query) { q.Limit = n } }

// WithOffsetID resumes a paginated query strictly after the given
// ObjectID — normally the previous page's Result.NextOffsetID.
func WithOffsetID(id string) QueryOption { return func(q *Query) { q.OffsetID = id } }

// WithReadPolicy selects the replica-serving policy for this query on a
// replicated network (no effect without WithReplication).
func WithReadPolicy(p ReadPolicy) QueryOption { return func(q *Query) { q.ReadPolicy = p } }

// WithQueueWait reports the caller-measured dispatch-queue wait to the
// diagnostics layer (see Query.QueueWait). It never changes execution.
func WithQueueWait(d time.Duration) QueryOption { return func(q *Query) { q.QueueWait = d } }

// NewLookup builds an exact-match lookup query for name.
func NewLookup(name string, opts ...QueryOption) Query {
	q := Query{Kind: KindLookup, Name: name}
	for _, o := range opts {
		o(&q)
	}
	return q
}

// NewValueLookup builds an exact-match lookup for the ObjectID the
// order-preserving naming assigns to the given attribute values (one per
// configured attribute) — the way to look up objects stored by Publish,
// which are keyed by their values, not their names.
func NewValueLookup(values []float64, opts ...QueryOption) Query {
	q := Query{Kind: KindLookup, Values: append([]float64(nil), values...)}
	for _, o := range opts {
		o(&q)
	}
	return q
}

// NewRange builds a range query, one Range per configured attribute.
// Single-attribute queries run PIRA; multi-attribute queries run MIRA.
// Options may retarget the kind (WithTopK, WithFlood).
func NewRange(ranges []Range, opts ...QueryOption) Query {
	q := Query{Kind: KindRange, Ranges: append([]Range(nil), ranges...)}
	for _, o := range opts {
		o(&q)
	}
	return q
}

// kind resolves the effective kind of the query.
func (q Query) kind() QueryKind {
	if q.Kind != 0 {
		return q.Kind
	}
	if q.Name != "" || len(q.Values) > 0 {
		return KindLookup
	}
	if q.K > 0 {
		return KindTopK
	}
	return KindRange
}
