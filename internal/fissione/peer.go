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
// The store is an ordered index: a slice of StoredObject sorted by
// (ObjectID, Name, Values). Ordering makes every region scan a binary
// search plus a contiguous walk — O(log n + k) for k results — and makes
// prefix moves (splits, merges) contiguous slice operations. ObjectIDs all
// have the network's fixed length k, so plain lexicographic comparison
// orders them and every Kautz region and identifier prefix denotes one
// contiguous run. The Values tie-break makes the order canonical: two
// stores holding the same multiset of objects are element-for-element
// identical regardless of insertion interleaving, which is what lets a
// replica set be compared byte for byte.
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

	// mu guards store. id is only written during topology mutation, which
	// excludes all other operations externally.
	mu    sync.RWMutex
	store []StoredObject // ascending (ObjectID, Name, Values)
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

// storedCompare is the canonical total order of the index: (ObjectID,
// Name, Values lexicographic). Fully equal elements (duplicate
// publications) compare equal. It takes pointers — into a store, mostly —
// so a binary search's probe copies no 56-byte element.
func storedCompare(a, b *StoredObject) int {
	if c := cmp.Compare(a.ObjectID, b.ObjectID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Object.Name, b.Object.Name); c != 0 {
		return c
	}
	return slices.Compare(a.Object.Values, b.Object.Values)
}

// lowerBound returns the first index i with (store[i].ObjectID,
// store[i].Name) >= (id, name). The caller holds p.mu.
func (p *Peer) lowerBound(id kautz.Str, name string) int {
	return sort.Search(len(p.store), func(i int) bool {
		so := &p.store[i]
		if so.ObjectID != id {
			return so.ObjectID > id
		}
		return so.Object.Name >= name
	})
}

// addObject stores obj under objectID on this peer, at its canonical
// position.
func (p *Peer) addObject(objectID kautz.Str, obj Object) {
	p.mu.Lock()
	defer p.mu.Unlock()
	so := StoredObject{ObjectID: objectID, Object: obj}
	i := sort.Search(len(p.store), func(i int) bool { return storedCompare(&p.store[i], &so) >= 0 })
	p.store = slices.Insert(p.store, i, so)
}

// removeObject deletes one stored occurrence of the object under objectID
// whose name and values match, reporting whether one was found. Values
// match element-wise (duplicate publications remove one at a time).
func (p *Peer) removeObject(objectID kautz.Str, obj Object) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := p.lowerBound(objectID, obj.Name); i < len(p.store); i++ {
		so := &p.store[i]
		if so.ObjectID != objectID || so.Object.Name != obj.Name {
			return false
		}
		if slices.Equal(so.Object.Values, obj.Values) {
			p.store = slices.Delete(p.store, i, i+1)
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

// scanBounds returns the index interval [lo, hi) a scan over the region —
// restricted to ObjectIDs with the prefix own, and to ObjectIDs strictly
// greater than after when after is non-empty — visits, in O(log n). own is
// how a replica's scan stays inside the region of the owner it serves for
// (its store also carries the neighboring regions' copies): each side takes
// the region's bound or the prefix's, whichever is tighter, decided by
// comparing own with the bound's head, so no bound string is ever built.
// An empty own bounds nothing. The caller holds p.mu.
func (p *Peer) scanBounds(own kautz.Str, r kautz.Region, after kautz.Str) (lo, hi int) {
	low, n := r.Low, len(own)
	if n > 0 && low[:n] < own {
		low = own // a prefix sorts directly before every ObjectID it starts
	}
	lo = sort.Search(len(p.store), func(i int) bool { return p.store[i].ObjectID >= low })
	if after != "" && after >= low {
		lo = sort.Search(len(p.store), func(i int) bool { return p.store[i].ObjectID > after })
	}
	if n > 0 && r.High[:n] > own {
		return lo, lo + sort.Search(len(p.store)-lo, func(i int) bool { return !p.store[lo+i].ObjectID.HasPrefix(own) })
	}
	return lo, lo + sort.Search(len(p.store)-lo, func(i int) bool { return p.store[lo+i].ObjectID > r.High })
}

// View is the one store read: it hands fn, once and under the store's read
// lock, the contiguous sorted run of stored objects whose ObjectIDs lie in
// the Kautz region, have the prefix own (the read of a replica serving for
// that identifier's owner; empty bounds nothing) and, when after is
// non-empty, are strictly greater than it — ascending (ObjectID, Name),
// possibly empty, positioned in O(log n). The run is the store itself: fn
// must not keep it (or a pointer into it) past its return, write to it, or
// call back into the peer. Stored value slices are never mutated in place,
// so those may be kept.
func (p *Peer) View(own kautz.Str, r kautz.Region, after kautz.Str, fn func(run []StoredObject)) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.scanBounds(own, r, after)
	fn(p.store[lo:hi:hi])
}

// ScanRegion calls fn for each object of the region's view (see View) in
// order, stopping early when fn returns false. It holds the peer's store
// lock throughout: fn must not call back into the peer.
func (p *Peer) ScanRegion(r kautz.Region, after kautz.Str, fn func(StoredObject) bool) {
	p.View("", r, after, func(run []StoredObject) {
		for i := range run {
			if !fn(run[i]) {
				return
			}
		}
	})
}

// AllObjects returns every object stored on the peer in ascending
// (ObjectID, Name) order.
func (p *Peer) AllObjects() []StoredObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]StoredObject(nil), p.store...)
}

// prefixRange returns the half-open index interval [lo, hi) of stored
// objects whose ObjectID starts with prefix. The caller holds p.mu. In the
// fixed-length lexicographic order every prefix owns one contiguous run.
func (p *Peer) prefixRange(prefix kautz.Str) (lo, hi int) {
	lo = sort.Search(len(p.store), func(i int) bool { return p.store[i].ObjectID >= prefix })
	hi = lo + sort.Search(len(p.store)-lo, func(i int) bool {
		return !p.store[lo+i].ObjectID.HasPrefix(prefix)
	})
	return lo, hi
}

// mergeStored merges two (ObjectID, Name)-sorted slices into one.
func mergeStored(a, b []StoredObject) []StoredObject {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]StoredObject, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if storedCompare(&b[0], &a[0]) < 0 {
			out = append(out, b[0])
			b = b[1:]
		} else {
			out = append(out, a[0])
			a = a[1:]
		}
	}
	return append(append(out, a...), b...)
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
// given prefix from p to dst — one contiguous slice cut and one merge.
func (p *Peer) moveObjectsWithPrefix(prefix kautz.Str, dst *Peer) {
	defer lockPair(p, dst)()
	lo, hi := p.prefixRange(prefix)
	if lo == hi {
		return
	}
	moved := append([]StoredObject(nil), p.store[lo:hi]...)
	p.store = slices.Delete(p.store, lo, hi)
	dst.store = mergeStored(dst.store, moved)
}

// moveAllObjects moves the peer's whole store to dst.
func (p *Peer) moveAllObjects(dst *Peer) {
	defer lockPair(p, dst)()
	dst.store = mergeStored(dst.store, p.store)
	p.store = nil
}

// absorbAllObjects moves the peer's whole store into dst taking the
// multiset maximum of the two stores instead of their sum: a run held by
// both peers collapses to one copy instead of doubling. This is the
// takeover move on replicated networks, where the absorbing peer often
// already holds a replica of the mover's region — copies within one group
// are identical, so keeping the maximum loses nothing (and preserves
// genuine duplicate publications, which are replicated at equal
// multiplicity everywhere).
func (p *Peer) absorbAllObjects(dst *Peer) {
	defer lockPair(p, dst)()
	dst.store = unionMax(dst.store, p.store)
	p.store = nil
}

// copyPrefixRun returns a copy of the peer's contiguous run of objects
// whose ObjectID starts with prefix. Object values are aliased, not deep
// copied — replica copies of one object share its value slice, which is
// safe because stored values are never mutated in place.
func (p *Peer) copyPrefixRun(prefix kautz.Str) []StoredObject {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.prefixRange(prefix)
	if lo == hi {
		return nil
	}
	return append([]StoredObject(nil), p.store[lo:hi]...)
}

// setPrefixRun replaces the peer's run for prefix with the given canonical
// run, returning how many of run's elements the peer did not already hold
// (the objects genuinely copied onto it). run must ascend storedCompare and
// contain only IDs with the prefix.
func (p *Peer) setPrefixRun(prefix kautz.Str, run []StoredObject) (added int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo, hi := p.prefixRange(prefix)
	added = diffCount(run, p.store[lo:hi])
	if added == 0 && len(run) == hi-lo {
		return 0 // identical content — the common case after churn
	}
	p.store = slices.Concat(p.store[:lo:lo], run, p.store[hi:])
	return added
}

// dropPrefixRun deletes the peer's run for prefix, returning how many
// objects it removed.
func (p *Peer) dropPrefixRun(prefix kautz.Str) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo, hi := p.prefixRange(prefix)
	if lo == hi {
		return 0
	}
	p.store = slices.Delete(p.store, lo, hi)
	return hi - lo
}

// diffCount returns how many elements of a (a sorted multiset) are absent
// from b (also sorted): the multiset difference |a \ b|.
func diffCount(a, b []StoredObject) int {
	missing := 0
	for len(a) > 0 {
		if len(b) == 0 {
			return missing + len(a)
		}
		switch c := storedCompare(&a[0], &b[0]); {
		case c < 0:
			missing++
			a = a[1:]
		case c > 0:
			b = b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	return missing
}

// clearStore discards every stored object (a crash-stop losing its data),
// returning how many were dropped.
func (p *Peer) clearStore() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.store)
	p.store = nil
	return n
}

// StoredObject pairs an object with the ObjectID it was published under.
type StoredObject struct {
	ObjectID kautz.Str
	Object   Object
}

func (s StoredObject) String() string {
	return fmt.Sprintf("%s@%s", s.Object.Name, s.ObjectID)
}
