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
// A peer's store is a slice of Slot — 16 bytes and no pointer each, memory
// the collector does not scan — sorted by (Key, Name, values), beside a
// column of float64: row i is slot i's N values, at the stride of the widest
// row the store holds (re-laid on the rare widening). Both grow by one rule:
// a full store of n objects reallocates both at n + n/2 + 1 rows. Key is the
// ObjectID's rank: ObjectIDs share the length k, so rank order is their
// order, every Kautz region and identifier prefix is one contiguous run, and
// every positioning — a scan's bounds, a publish, an unpublish, a split's
// cut — is a binary search over integers. The values tie-break makes the
// order canonical, so stores holding one multiset are identical element for
// element and a replica set compares byte for byte. Values are not in the
// record because a scan filters on them: 8 bytes an object from a column.
//
// A record, ObjectID‖Name, lives in the network's arena (records): a slot's
// Ref is its 4 KiB chunk's number and its offset there. A publish copies it
// once into the fill chunk, shared by every replica, so about a hundred
// records share one heap object. The arena counts each chunk's slots over
// every store: a publish raises the count by the replica count before any
// member stores the slot, a copy (repair, re-replication, a degree raised)
// raises it, a removal (unpublish, a crash, a takeover's duplicate, a replica
// run dropped) lowers it, and a move (split, merge, relocation) leaves it. At
// zero a chunk other than the fill chunk leaves the table and its number is
// reused. Chunk memory is never rewritten: a result holding a record
// (Match.ID and Match.Name are its halves) keeps its chunk alive through the
// collector. A chunk stays whole while any of its records is stored — under
// random eviction within a few percent of a string per record
// (BenchmarkChurnRetention). Run.Rec is the one reader of a record: a reader
// handed a Run under the store lock (ViewSpan) may keep records, never a
// slot — a number the arena reuses — nor a row of Vals, which shifts under
// the next publish.
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
	"unsafe"

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

	// deliveries counts query deliveries addressed to this peer as region
	// owner — the per-region load signal the load controller samples. It
	// advances regardless of which replica serves the scan (ownership, not
	// serving, is the unit splits and migrations act on) and regardless of
	// replication degree.
	deliveries atomic.Int64

	// mu guards store and vals. id is only written during topology mutation,
	// which excludes all other operations externally.
	mu    sync.RWMutex
	store []Slot    // ascending (Key, Name, values)
	vals  []float64 // the column: len(store) rows of one stride, in store order
	recs  *records  // the network's record arena, where the slots' records are
}

// Slot is one stored object: what every search compares. It is 16 bytes and
// holds no pointer (TestSlotLayout), so a slot array is memory the collector
// does not scan.
type Slot struct {
	Key  uint64 // the ObjectID's rank (kautz.Rank): the store's sort key
	Ref  uint32 // the record, ObjectID‖Name, in the arena: chunk<<refBits | offset
	RLen uint16 // the record's length
	N    uint16 // how many values the object carries: the length of its row
}

// recChunk is the size of a record chunk. Smaller chunks give the collector
// more objects to mark; larger ones are kept whole by fewer live records
// under churn (BenchmarkChurnRetention). A Ref's low refBits bits are an
// offset in a chunk, its high 20 the chunk's number, of which the arena's
// table takes the low pageBits for its second level.
const (
	recChunk          = 1 << refBits
	refBits, pageBits = 12, 10
	pageMask          = 1<<pageBits - 1
)

// records is a network's record arena (the package comment's Store section):
// its chunks by number, the count of the slots in every store that refer to
// each, and the fill chunk publishes copy records into. The table has two
// levels so that no entry moves: a reader resolves a Ref without the arena's
// lock, through a slot it read under its store's lock, which orders the read
// after the entry was written.
type records struct {
	k      int // the ObjectID length: a record's first k bytes
	mu     sync.Mutex
	table  [1 << (32 - refBits - pageBits)]*[1 << pageBits]*byte // number → the chunk's first byte; nil once released
	counts []int32                                               // number → the slots referring to the chunk
	free   []uint32                                              // released numbers, reused first
	fill   []byte                                                // the fill chunk, as long as its records
	at     uint32                                                // the fill chunk's number
}

// newSlot copies the record id‖name into the fill chunk and returns the slot
// of an object with n values under the ObjectID of rank key, counted as held
// by the given number of stores, which must then store it. A full fill chunk
// is replaced by a fresh one; a record longer than an eighth of a chunk gets
// a chunk of its own, so no fill chunk ends more than that short of full. It
// reports false, changing nothing, when every chunk number is in use.
func (r *records) newSlot(key uint64, id []byte, name string, n, stores int) (Slot, bool) {
	size, grow := len(id)+len(name), recChunk
	r.mu.Lock()
	defer r.mu.Unlock()
	var own []byte
	dst, c := &r.fill, r.at
	if size > recChunk/8 {
		dst, grow = &own, size
	}
	if cap(*dst)-len(*dst) < size {
		mem, ok := make([]byte, 0, grow), false
		if c, ok = r.number(mem); !ok {
			return Slot{}, false
		}
		if dst == &r.fill {
			if r.fill != nil && r.counts[r.at] == 0 {
				r.release(r.at)
			}
			r.at = c
		}
		*dst = mem
	}
	off := len(*dst)
	*dst = append(append(*dst, id...), name...)
	r.counts[c] += int32(stores)
	return Slot{Key: key, Ref: c<<refBits | uint32(off), RLen: uint16(size), N: uint16(n)}, true
}

// number enters the chunk mem in the table under a number — a released one
// first — whose count is zero, reporting false when all 1<<20 are in use.
func (r *records) number(mem []byte) (uint32, bool) {
	c := uint32(len(r.counts))
	if f := len(r.free) - 1; f >= 0 {
		c, r.free = r.free[f], r.free[:f]
	} else if c == 1<<(32-refBits) {
		return 0, false
	} else {
		r.counts = append(r.counts, 0)
	}
	page := &r.table[c>>pageBits]
	if *page == nil {
		*page = new([1 << pageBits]*byte)
	}
	(*page)[c&pageMask] = unsafe.SliceData(mem)
	return c, true
}

// release takes chunk c, which no slot refers to, out of the table and its
// number into the free list. The chunk's memory is the collector's to reclaim
// once no record a reader kept points into it.
func (r *records) release(c uint32) {
	r.table[c>>pageBits][c&pageMask] = nil
	r.free = append(r.free, c)
}

// recount counts the slots of in, which a store gains, and uncounts those of
// out, which stores lose, releasing each chunk left with no slot but the
// fill chunk. in is counted first, so a slot kept through a swap of runs
// never leaves its chunk at zero.
func (r *records) recount(in []Slot, out ...[]Slot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range in {
		r.counts[s.Ref>>refBits]++
	}
	for _, run := range out {
		for _, s := range run {
			c := s.Ref >> refBits
			if r.counts[c]--; r.counts[c] == 0 && (c != r.at || r.fill == nil) {
				r.release(c)
			}
		}
	}
}

// Run is a contiguous run of a store: its slots, their rows of the value
// column and the arena their records are in. Object i's values are
// Vals[i*Stride : i*Stride+int(Idx[i].N)]; the rest of its row is padding.
type Run struct {
	Idx    []Slot
	Vals   []float64
	Stride int
	recs   *records
}

// Rec returns object i's record, ObjectID‖Name: its first K bytes are the
// ObjectID, K the network's, and the rest the name. The record is immutable
// and may be kept, as its slot may not.
func (r *Run) Rec(i int) string {
	ref := r.Idx[i].Ref
	chunk := r.recs.table[ref>>(refBits+pageBits)][ref>>refBits&pageMask]
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(chunk), ref&(recChunk-1))), r.Idx[i].RLen)
}

// SpanOf returns the ranks of the region's ObjectIDs strictly greater than
// after, when after is non-empty.
func SpanOf(r kautz.Region, after kautz.Str) kautz.Span {
	s, _ := kautz.Span{Lo: kautz.Rank(r.Low), Hi: kautz.Rank(r.High)}.Past(after)
	return s
}

// ID returns the peer's identifier.
func (p *Peer) ID() kautz.Str { return p.id }

// Deliveries returns how many query deliveries have addressed this peer as
// its region's owner.
func (p *Peer) Deliveries() int64 { return p.deliveries.Load() }

// NoteDelivery records one query delivery addressed to this peer's region.
func (p *Peer) NoteDelivery() { p.deliveries.Add(1) }

// row returns object i's values.
func (r Run) row(i int) []float64 { return r.Vals[i*r.Stride:][:r.Idx[i].N] }

// compareAt is the canonical total order of the index between a's object i
// and b's object j: (Key, Name, values lexicographic). Fully equal elements
// (duplicate publications) compare equal. Under one key the ObjectIDs are
// equal, so the records compare as the names do.
func compareAt(a Run, i int, b Run, j int) int {
	if c := cmp.Compare(a.Idx[i].Key, b.Idx[j].Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rec(i), b.Rec(j)); c != 0 {
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
// arena. Both arrays are exactly as long as the run, so a store made of the
// copy has a column row for every slot of room.
func (r Run) clone() Run {
	return Run{Idx: slices.Clip(slices.Clone(r.Idx)), Vals: slices.Clip(slices.Clone(r.Vals)), Stride: r.Stride, recs: r.recs}
}

// each calls fn for the run's objects in order until it returns false. Their
// values are views of one copy of the run's column, so that they outlive the
// store lock.
func (r Run) each(fn func(StoredObject) bool) {
	vals, k := slices.Clone(r.Vals), r.recs.k
	for i := range r.Idx {
		s, rec := &r.Idx[i], r.Rec(i)
		so := StoredObject{ObjectID: kautz.Str(rec[:k]), Object: Object{Name: rec[k:]}}
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
	return Run{Idx: p.store[lo:hi:hi], Vals: p.vals[lo*w : hi*w : hi*w], Stride: w, recs: p.recs}
}

// set makes r, which the peer takes over, its store. The caller holds p.mu.
func (p *Peer) set(r Run) { p.store, p.vals = r.Idx, r.Vals }

// cut deletes the store's objects [lo, hi). The caller holds p.mu.
func (p *Peer) cut(lo, hi int) {
	w := p.stride()
	p.store, p.vals = slices.Delete(p.store, lo, hi), slices.Delete(p.vals, lo*w, hi*w)
}

// addObject stores the object of slot s and values row on this peer, at its
// canonical position; the row is copied into the column. A full store grows
// both arrays by half (the package comment's Store section); a row wider than
// any the store holds re-lays the column at its width and the same rows:
// rare, a network's objects mostly share one arity.
func (p *Peer) addObject(s Slot, row []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	one, all := Run{Idx: []Slot{s}, Vals: row, Stride: len(row), recs: p.recs}, p.run(0, len(p.store))
	lo := searchKey(p.store, s.Key)
	same := searchKey(p.store[lo:], s.Key+1) // objects under this ObjectID: many, where many share a value
	i := lo + sort.Search(same, func(j int) bool { return compareAt(all, lo+j, one, 0) >= 0 })
	n, w := len(p.store), max(all.Stride, len(row))
	if rows := cap(p.store); n == rows || w > all.Stride {
		if n == rows {
			rows = n + n/2 + 1
			p.store = append(make([]Slot, 0, rows), p.store...)
		}
		p.vals = make([]float64, n*w, rows*w)
		for j := range n {
			copy(p.vals[j*w:], all.row(j))
		}
	}
	p.store = slices.Insert(p.store, i, s)
	p.vals = append(p.vals, make([]float64, w)...)
	copy(p.vals[(i+1)*w:], p.vals[i*w:])
	m := copy(p.vals[i*w:], row)
	clear(p.vals[i*w+m : (i+1)*w])
}

// removeObject deletes one stored occurrence of the object named name under
// the ObjectID of rank key whose values match, returning its slot, for the
// caller to uncount, and whether one was found. Values match element-wise
// (duplicate publications remove one at a time).
func (p *Peer) removeObject(key uint64, name string, values []float64) (Slot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	all, lo := p.run(0, len(p.store)), searchKey(p.store, key)
	same := searchKey(p.store[lo:], key+1)
	named := func(i int) string { return all.Rec(i)[p.recs.k:] }
	for i := lo + sort.Search(same, func(j int) bool { return named(lo+j) >= name }); i < lo+same && named(i) == name; i++ {
		if slices.Equal(all.row(i), values) {
			s := p.store[i]
			p.cut(i, i+1)
			return s, true
		}
	}
	return Slot{}, false
}

// ObjectCount returns the number of objects stored on the peer in O(1).
func (p *Peer) ObjectCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.store)
}

// bounds returns the index interval [lo, hi) of the stored objects whose
// ObjectID ranks lie in the span, in O(log n). The caller holds p.mu.
func (p *Peer) bounds(s kautz.Span) (lo, hi int) {
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
// it may keep past its return only records (Run.Rec), which are immutable —
// never a slot, the run's slices or a row of Vals: the arena reuses a chunk's
// number once no store counts it, and the column shifts under the next
// publish.
func (p *Peer) ViewSpan(s kautz.Span, fn func(Run)) {
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
	klo, khi := kautz.PrefixRanks(prefix, p.recs.k)
	return p.bounds(kautz.Span{Lo: klo, Hi: khi})
}

// merge merges two canonically sorted runs into one: their sum or, with
// union, their multiset maximum — the union of two snapshots of the same
// replicated run, possibly with different suffixes of history applied. The
// result may be one of the arguments; a new one is allocated at exactly its
// length.
func merge(a, b Run, union bool) Run {
	if len(a.Idx) == 0 {
		return b
	}
	if len(b.Idx) == 0 {
		return a
	}
	n := len(a.Idx) + len(b.Idx)
	if union {
		n = len(a.Idx) + diffCount(b, a)
	}
	out := Run{Idx: make([]Slot, 0, n), Stride: max(a.Stride, b.Stride), recs: a.recs}
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
// collapses to one copy instead of doubling, and the copies dropped are
// uncounted. That is the takeover move on replicated networks, where the
// absorbing peer often already holds a replica of the mover's region —
// copies within one group are identical, so keeping the maximum loses
// nothing (and preserves genuine duplicate publications, which are
// replicated at equal multiplicity everywhere).
func (p *Peer) moveAllObjects(dst *Peer, union bool) {
	defer lockPair(p, dst)()
	into, from := dst.run(0, len(dst.store)), p.run(0, len(p.store))
	all := merge(into, from, union)
	if len(all.Idx) < len(into.Idx)+len(from.Idx) {
		p.recs.recount(all.Idx, into.Idx, from.Idx)
	}
	dst.set(all)
	p.set(Run{})
}

// copyPrefixRun returns a copy of the peer's contiguous run of objects
// whose ObjectID starts with prefix, uncounted: its slots are valid only
// while the topology's external exclusion lasts. Records are shared, not
// copied — replica copies of one object share its record.
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
	p.recs.recount(run.Idx, p.store[lo:hi])
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
	p.recs.recount(nil, p.store[lo:hi])
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
	p.recs.recount(nil, p.store)
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
