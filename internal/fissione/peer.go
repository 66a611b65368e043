// Package fissione implements the FISSIONE DHT overlay of Li, Lu and Wu
// (INFOCOM 2005), the substrate on which Armada runs.
//
// FISSIONE organizes peers into an approximation of the Kautz graph K(2,k).
// Peer identifiers are variable-length Kautz strings forming a prefix-free
// cover of the namespace: every ObjectID (a Kautz string of fixed length k)
// has exactly one peer whose PeerID is one of its prefixes, and that peer
// stores the object. The overlay maintains FISSIONE's topology rules:
//
//   - Shift edges: peer U = u1u2...ub has an out-edge to every peer owning
//     part of the namespace region u2...ub·*. Under the neighborhood
//     invariant those peers have identifiers u2...ub·q with 0 ≤ |q| ≤ 2.
//   - Neighborhood invariant: the identifier lengths of neighboring peers
//     differ by at most one. Joins preserve it by walking to a local minimum
//     of identifier length before splitting; graceful departures merge the
//     departing peer's sibling when legal and otherwise relocate a peer
//     freed by merging a globally deepest sibling pair.
//
// The package is a faithful, locally-routed simulator: every peer keeps its
// own routing table (out- and in-neighbor lists) and query engines consult
// only those tables.
//
// # Slots
//
// Every live peer holds a dense int32 slot, and the slot is the only
// address routing uses. The node array (slot → identifier, routing table of
// neighbor slots, trie position, *Peer) and the order array (live slots
// ascending by identifier) are the authoritative topology. A split renames
// the slot it divides, and a departure returns its slot to a free list that
// joins drain before the node array grows. Slot numbering is invisible:
// fingerprints and snapshots are written in names and trie positions, so a
// churned network and its reloaded copy (fresh dense numbering) are
// indistinguishable. A slot is also how routing state learned outside the
// network stays honest: a slot still carrying the identifier it was learned
// under (IDAt) owns exactly that identifier's region, whatever changed
// elsewhere.
//
// The index over them is the cover: the partition tree the identifiers are
// the leaves of, in one flat array (see the cover type) — there is no name →
// slot map. One walk down it resolves a name where one enters (Slot, Peer,
// Leave, FailAbrupt, SplitRegion), finds an ObjectID's owner (OwnerOf, the
// publishes, OwnerSlot, every join's target) or lists the peers under a
// prefix in identifier order, from which topology maintenance derives tables
// and siblings; no query hop and no replica-group lookup touches it. Its
// names stay prefix-free at every step: a mutation unregisters a name before
// it registers the one replacing it, and one above or below a live name is
// refused.
//
// # Store
//
// A peer's store is a slice of Slot — 32 bytes and one pointer each — sorted
// by (Key, Name, values), beside a column of float64: row i of the column is
// slot i's N values, at a stride of the widest row the store holds (re-laid
// on the rare widening, so value-less objects and any arity coexist). Key is
// the ObjectID's rank: ObjectIDs share the fixed length k, so rank order is
// their order, every Kautz region and identifier prefix is one contiguous
// run, and every positioning — a scan's bounds, a publish, an unpublish, a
// split's cut — is a binary search over integers in one array. The values
// tie-break makes the order canonical: stores holding the same multiset of
// objects are element-for-element identical however insertions interleaved,
// which is what lets a replica set be compared byte for byte. Rec is the
// object's record, ObjectID‖Name: one immutable string allocated by its
// publish and shared by every replica's slot and every result (Match.ID and
// Match.Name are its halves), so a collector cycle follows one pointer to
// one heap object per stored object. A reader handed a Run under the store
// lock (ViewSpan) may keep slots and records; rows it must copy, for the
// column shifts under the next publish. Values are not in the record because
// a scan filters on them: from a column it reads 8 bytes an object, not a
// cache line of identifier and name.
//
// # Concurrency
//
// Topology mutation (Join, Leave, FailAbrupt, the Build functions) requires
// external exclusion: callers must not mutate the topology while any other
// operation runs. Object storage, however, is safe for concurrent use while
// the topology is stable: each Peer guards its store with its own lock, so
// any number of PublishAt/UnpublishAt calls and store reads (View,
// ScanRegion, AllObjects, ObjectCount) may run concurrently, on the same
// peer or different ones. The armada package maps this onto a two-tier
// scheme: a topology RWMutex held exclusively by Join/Leave/Fail and shared
// by everything else, plus the per-peer store locks.
package fissione

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"armada/internal/kautz"
)

// Object is a named item published on the DHT, carrying the attribute
// values it was named by (one value for single-attribute naming, m values
// for multi-attribute naming) — or no values for exact-match-only objects.
type Object struct {
	Name   string
	Values []float64
}

// Peer is one FISSIONE node: its identity, its load counters and its store.
// Its routing table lives in the network's slot-indexed node array
// (Network.Out, Network.In), under the slot the peer keeps for life
// (Network.Slot) — a split or merge renames it in place. Query engines must
// route using only those tables.
//
// The store — slots ascending (Key, Name, values), their values in a column —
// is described in the package comment's Store section.
type Peer struct {
	id kautz.Str

	// served counts region scans this peer has answered as the serving
	// member of a replica group — the load signal of the least-loaded read
	// policy and the read-spread metric.
	served atomic.Int64

	// deliveries counts query deliveries addressed to this peer as region
	// owner — the per-region load signal the load controller samples. It
	// advances regardless of which replica serves the scan (ownership, not
	// serving, is the unit splits and migrations act on) and regardless of
	// replication degree, unlike served, which only moves on replicated
	// networks.
	deliveries atomic.Int64

	// mu guards store and vals. id is only written during topology mutation,
	// which excludes all other operations externally.
	mu    sync.RWMutex
	store []Slot    // ascending (Key, Name, values)
	vals  []float64 // the column: len(store) rows of one stride, in store order
}

// Slot is one stored object: what the collector walks and every search
// compares. It holds exactly one pointer (TestSlotLayout).
type Slot struct {
	Key  uint64 // the ObjectID's rank (kautz.Rank): the store's sort key
	Rec  string // the record, ObjectID‖Name: immutable, shared by every replica and every result
	ILen uint16 // the ObjectID's length within Rec — the network's k
	N    uint16 // how many values the object carries: the length of its row
}

// Run is a contiguous run of a store: its slots and their rows of the value
// column. Object i's values are Vals[i*Stride : i*Stride+int(Idx[i].N)]; the
// rest of its row is padding.
type Run struct {
	Idx    []Slot
	Vals   []float64
	Stride int
}

// Span is an inclusive interval of ObjectID ranks; Lo > Hi holds nothing.
type Span struct{ Lo, Hi uint64 }

// Clip returns the part of the span within [lo, hi].
func (s Span) Clip(lo, hi uint64) Span { return Span{Lo: max(s.Lo, lo), Hi: min(s.Hi, hi)} }

// SpanOf returns the ranks of the region's ObjectIDs strictly greater than
// after, when after is non-empty.
func SpanOf(r kautz.Region, after kautz.Str) Span {
	s := Span{Lo: kautz.Rank(r.Low), Hi: kautz.Rank(r.High)}
	if after != "" {
		s.Lo = max(s.Lo, kautz.Rank(after)+1)
	}
	return s
}

func newPeer(id kautz.Str) *Peer {
	return &Peer{id: id}
}

// ID returns the peer's identifier.
func (p *Peer) ID() kautz.Str { return p.id }

// ServedReads returns how many region scans this peer has answered as a
// replica group's serving member.
func (p *Peer) ServedReads() int64 { return p.served.Load() }

// NoteServed records one served region scan.
func (p *Peer) NoteServed() { p.served.Add(1) }

// Deliveries returns how many query deliveries have addressed this peer as
// its region's owner.
func (p *Peer) Deliveries() int64 { return p.deliveries.Load() }

// NoteDelivery records one query delivery addressed to this peer's region.
func (p *Peer) NoteDelivery() { p.deliveries.Add(1) }

// row returns object i's values.
func (r Run) row(i int) []float64 { return r.Vals[i*r.Stride:][:r.Idx[i].N] }

// compareAt is the canonical total order of the index between a's object i
// and b's object j: (Key, Name, values lexicographic). Fully equal elements
// (duplicate publications) compare equal.
func compareAt(a Run, i int, b Run, j int) int {
	x, y := &a.Idx[i], &b.Idx[j]
	if c := cmp.Compare(x.Key, y.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Rec[x.ILen:], y.Rec[y.ILen:]); c != 0 {
		return c
	}
	return slices.Compare(a.row(i), b.row(j))
}

// push appends src's object i, its row padded or cut to r's stride, which no
// row of src outgrows.
func (r *Run) push(src Run, i int) {
	r.Idx = append(r.Idx, src.Idx[i])
	n := len(r.Vals)
	r.Vals = append(r.Vals, make([]float64, r.Stride)...)
	copy(r.Vals[n:], src.row(i))
}

// clone returns a copy of the run that shares nothing with a store but the
// records, which are immutable.
func (r Run) clone() Run {
	return Run{Idx: slices.Clone(r.Idx), Vals: slices.Clone(r.Vals), Stride: r.Stride}
}

// each calls fn for the run's objects in order until it returns false. Their
// values are views of one copy of the run's column, so that they outlive the
// store lock.
func (r Run) each(fn func(StoredObject) bool) {
	vals := slices.Clone(r.Vals)
	for i := range r.Idx {
		s := &r.Idx[i]
		so := StoredObject{ObjectID: kautz.Str(s.Rec[:s.ILen]), Object: Object{Name: s.Rec[s.ILen:]}}
		if s.N > 0 {
			so.Object.Values = vals[i*r.Stride:][:s.N:s.N]
		}
		if !fn(so) {
			return
		}
	}
}

// searchKey returns the first index whose Key is at least key.
func searchKey(s []Slot, key uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].Key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// stride is the width of the column's rows: the widest row the store has
// held since it was last empty. The caller holds p.mu.
func (p *Peer) stride() int {
	if len(p.store) == 0 {
		return 0
	}
	return len(p.vals) / len(p.store)
}

// run returns the store's objects [lo, hi) in place. The caller holds p.mu.
func (p *Peer) run(lo, hi int) Run {
	w := p.stride()
	return Run{Idx: p.store[lo:hi:hi], Vals: p.vals[lo*w : hi*w : hi*w], Stride: w}
}

// set makes r, which the peer takes over, its store. The caller holds p.mu.
func (p *Peer) set(r Run) { p.store, p.vals = r.Idx, r.Vals }

// cut deletes the store's objects [lo, hi). The caller holds p.mu.
func (p *Peer) cut(lo, hi int) {
	w := p.stride()
	p.store, p.vals = slices.Delete(p.store, lo, hi), slices.Delete(p.vals, lo*w, hi*w)
}

// addObject stores the object of slot s and values row on this peer, at its
// canonical position; the row is copied into the column. A row wider than any
// the store holds re-lays the column at its width first: rare, a network's
// objects mostly share one arity.
func (p *Peer) addObject(s Slot, row []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	one, all := Run{Idx: []Slot{s}, Vals: row, Stride: len(row)}, p.run(0, len(p.store))
	lo := searchKey(p.store, s.Key)
	same := searchKey(p.store[lo:], s.Key+1) // objects under this ObjectID: many, where many share a value
	i := lo + sort.Search(same, func(j int) bool { return compareAt(all, lo+j, one, 0) >= 0 })
	w := all.Stride
	if len(row) > w {
		w, p.vals = len(row), make([]float64, len(p.store)*len(row), (len(p.store)+1)*len(row))
		for j := range p.store {
			copy(p.vals[j*w:], all.row(j))
		}
	}
	p.store = slices.Insert(p.store, i, s)
	p.vals = append(p.vals, make([]float64, w)...)
	copy(p.vals[(i+1)*w:], p.vals[i*w:])
	n := copy(p.vals[i*w:], row)
	clear(p.vals[i*w+n : (i+1)*w])
}

// removeObject deletes one stored occurrence of the object named name under
// the ObjectID of rank key whose values match, reporting whether one was
// found. Values match element-wise (duplicate publications remove one at a
// time).
func (p *Peer) removeObject(key uint64, name string, values []float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	all, lo := p.run(0, len(p.store)), searchKey(p.store, key)
	same := searchKey(p.store[lo:], key+1)
	named := func(i int) string { return p.store[i].Rec[p.store[i].ILen:] }
	for i := lo + sort.Search(same, func(j int) bool { return named(lo+j) >= name }); i < lo+same && named(i) == name; i++ {
		if slices.Equal(all.row(i), values) {
			p.cut(i, i+1)
			return true
		}
	}
	return false
}

// ObjectCount returns the number of objects stored on the peer in O(1).
func (p *Peer) ObjectCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.store)
}

// bounds returns the index interval [lo, hi) of the stored objects whose
// ObjectID ranks lie in the span, in O(log n). The caller holds p.mu.
func (p *Peer) bounds(s Span) (lo, hi int) {
	if s.Lo > s.Hi {
		return 0, 0
	}
	lo = searchKey(p.store, s.Lo)
	return lo, lo + searchKey(p.store[lo:], s.Hi+1)
}

// ViewSpan is the one store read: it hands fn, once and under the store's
// read lock, the contiguous sorted run of stored objects whose ObjectID
// ranks lie in the span — ascending (ObjectID, Name), possibly empty,
// positioned in O(log n) integer comparisons. The run is the store itself: fn
// must not write to it or call back into the peer, and of what it is handed
// it may keep past its return only slots by value and their records, which
// are immutable — never the run's slices or a row of Vals: the column shifts
// under the next publish.
func (p *Peer) ViewSpan(s Span, fn func(Run)) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	fn(p.run(p.bounds(s)))
}

// View is ViewSpan for a caller that holds strings: the objects whose
// ObjectIDs lie in the Kautz region, have the prefix own (a replica's store
// also carries the neighboring regions' copies; empty bounds nothing) and,
// when after is non-empty, are strictly greater than it. It ranks its
// arguments on every call; a query ranks its region once and calls ViewSpan.
func (p *Peer) View(own kautz.Str, r kautz.Region, after kautz.Str, fn func(Run)) {
	p.ViewSpan(SpanOf(r, after).Clip(kautz.PrefixRanks(own, r.K())), fn)
}

// ScanRegion calls fn for each object of the region's view (see View) in
// order, stopping early when fn returns false. The values of the objects one
// call hands out share one backing array, copied from the column, so fn may
// keep them. It holds the peer's store lock throughout: fn must not call back
// into the peer.
func (p *Peer) ScanRegion(r kautz.Region, after kautz.Str, fn func(StoredObject) bool) {
	p.View("", r, after, func(run Run) { run.each(fn) })
}

// AllObjects returns every object stored on the peer in ascending
// (ObjectID, Name) order.
func (p *Peer) AllObjects() (out []StoredObject) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.run(0, len(p.store)).each(func(so StoredObject) bool {
		out = append(out, so)
		return true
	})
	return out
}

// prefixRange returns the half-open index interval [lo, hi) of stored
// objects whose ObjectID starts with prefix. The caller holds p.mu. In rank
// order every prefix owns one contiguous run.
func (p *Peer) prefixRange(prefix kautz.Str) (lo, hi int) {
	if len(p.store) == 0 {
		return 0, 0
	}
	klo, khi := kautz.PrefixRanks(prefix, int(p.store[0].ILen)) // every slot's ILen is the network's k
	return p.bounds(Span{Lo: klo, Hi: khi})
}

// merge merges two canonically sorted runs into one: their sum or, with
// union, their multiset maximum — the union of two snapshots of the same
// replicated run, possibly with different suffixes of history applied. The
// result may be one of the arguments.
func merge(a, b Run, union bool) Run {
	if len(a.Idx) == 0 {
		return b
	}
	if len(b.Idx) == 0 {
		return a
	}
	n := len(a.Idx) + len(b.Idx)
	if union {
		n = max(len(a.Idx), len(b.Idx))
	}
	out := Run{Idx: make([]Slot, 0, n), Stride: max(a.Stride, b.Stride)}
	out.Vals = make([]float64, 0, n*out.Stride)
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		c := compareAt(a, i, b, j)
		if c > 0 {
			out.push(b, j)
			j++
			continue
		}
		out.push(a, i)
		i++
		if c == 0 && union {
			j++
		}
	}
	for ; i < len(a.Idx); i++ {
		out.push(a, i)
	}
	for ; j < len(b.Idx); j++ {
		out.push(b, j)
	}
	return out
}

// lockPair acquires both peers' store locks in identifier order, so
// concurrent movers could never deadlock. Movers in fact only run under the
// topology write lock; the ordering is defense in depth.
func lockPair(a, b *Peer) (unlock func()) {
	if b.id < a.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
	return func() { b.mu.Unlock(); a.mu.Unlock() }
}

// moveObjectsWithPrefix moves every stored object whose ObjectID has the
// given prefix from p to dst — one contiguous cut and one merge.
func (p *Peer) moveObjectsWithPrefix(prefix kautz.Str, dst *Peer) {
	defer lockPair(p, dst)()
	lo, hi := p.prefixRange(prefix)
	moved := p.run(lo, hi).clone()
	p.cut(lo, hi)
	dst.set(merge(dst.run(0, len(dst.store)), moved, false))
}

// moveAllObjects moves the peer's whole store to dst: the sum of the two
// stores or, with union, their multiset maximum — a run held by both peers
// collapses to one copy instead of doubling. That is the takeover move on
// replicated networks, where the absorbing peer often already holds a
// replica of the mover's region — copies within one group are identical, so
// keeping the maximum loses nothing (and preserves genuine duplicate
// publications, which are replicated at equal multiplicity everywhere).
func (p *Peer) moveAllObjects(dst *Peer, union bool) {
	defer lockPair(p, dst)()
	dst.set(merge(dst.run(0, len(dst.store)), p.run(0, len(p.store)), union))
	p.set(Run{})
}

// copyPrefixRun returns a copy of the peer's contiguous run of objects
// whose ObjectID starts with prefix. Records are shared, not copied —
// replica copies of one object share its record, which is immutable.
func (p *Peer) copyPrefixRun(prefix kautz.Str) Run {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.run(p.prefixRange(prefix)).clone()
}

// setPrefixRun replaces the peer's run for prefix with a copy of the given
// canonical run, returning how many of run's elements the peer did not
// already hold (the objects genuinely copied onto it). run must ascend the
// canonical order and contain only IDs with the prefix.
func (p *Peer) setPrefixRun(prefix kautz.Str, run Run) (added int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo, hi := p.prefixRange(prefix)
	added = diffCount(run, p.run(lo, hi))
	if added == 0 && len(run.Idx) == hi-lo {
		return 0 // identical content — the common case after churn
	}
	p.cut(lo, hi)
	p.set(merge(p.run(0, len(p.store)), run.clone(), false))
	return added
}

// dropPrefixRun deletes the peer's run for prefix, returning how many
// objects it removed.
func (p *Peer) dropPrefixRun(prefix kautz.Str) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo, hi := p.prefixRange(prefix)
	p.cut(lo, hi)
	return hi - lo
}

// diffCount returns how many elements of a (a sorted multiset) are absent
// from b (also sorted): the multiset difference |a \ b|.
func diffCount(a, b Run) int {
	missing, i, j := 0, 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch c := compareAt(a, i, b, j); {
		case c < 0:
			missing++
			i++
		case c > 0:
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return missing + len(a.Idx) - i
}

// clearStore discards every stored object (a crash-stop losing its data),
// returning how many were dropped.
func (p *Peer) clearStore() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.store)
	p.set(Run{})
	return n
}

// StoredObject pairs an object with the ObjectID it was published under. No
// store holds one: ScanRegion and AllObjects build them for their callers.
type StoredObject struct {
	ObjectID kautz.Str
	Object   Object
}

func (s StoredObject) String() string {
	return fmt.Sprintf("%s@%s", s.Object.Name, s.ObjectID)
}
