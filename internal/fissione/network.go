package fissione

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"armada/internal/kautz"
	"armada/internal/obs"
)

// Errors returned by Network operations.
var (
	ErrTooSmall     = errors.New("fissione: network cannot shrink below its three seed regions")
	ErrNoSuchPeer   = errors.New("fissione: no such peer")
	ErrBadObjectID  = errors.New("fissione: ObjectID must be a Kautz string of the network's length k")
	ErrCorrupt      = errors.New("fissione: namespace cover is corrupt")
	ErrNoSuchObject = errors.New("fissione: no such object")
)

// noSlot is the slot no peer ever holds.
const noSlot int32 = -1

// maxDegree bounds a routing table. The neighborhood invariant caps a
// peer's out-degree at 4 (the owner of its shifted region, or that region's
// children and grandchildren) and fixes its in-degree at 2 (one owner per
// other leading symbol), so a table fits inline in its node.
const maxDegree = 6

// node is one slot's routing state — what a query hop reads, packed so that
// testing a neighbor's identifier also brings in the table the next hop
// follows. A free slot holds the zero node.
type node struct {
	id kautz.Str
	// nbr lists neighbor slots, out-neighbors then in-neighbors, each list
	// ascending by identifier (hop order is behaviour), not by slot.
	nbr            [maxDegree]int32
	pos            int32 // position in order
	outLen, nbrLen uint8
	peer           *Peer
}

// Network is a FISSIONE overlay of peers partitioning KautzSpace(2,k) by
// identifier prefix. Topology mutation (Join, Leave, FailAbrupt,
// SetReplicas) is not safe for concurrent use and requires external
// exclusion against every other operation. While the topology is stable,
// object operations (PublishAt, UnpublishAt) and reads may all run
// concurrently: each peer's store is guarded by its own lock (see Peer).
//
// With a replication degree above 1 (SetReplicas), each region is owned by
// a replica group — the owner plus its successors in trie order — and
// every store write fans out to the whole group; see replication.go.
type Network struct {
	k int
	// The topology, addressed by slot (see the package comment).
	nodes []node  // indexed by slot
	free  []int32 // released slots, reused before nodes grows
	order []int32 // live slots ascending by identifier: trie order
	cover cover   // identifier → slot, owner of, leaves under: the partition tree

	rng      *rand.Rand
	seed     int64       // rng seed; snapshots embed it to replay draws
	joins    uint64      // random joins performed (rng draws to replay on load)
	replicas int         // replication degree; 1 = single-owner
	reRepl   obs.Counter // objects copied by churn repair
	repairs  obs.Counter // regions whose replica set repair actually rebuilt
	epoch    atomic.Uint64
	// onRepair, when set (SetRepairHook), observes each region repair that
	// copied objects. It runs under the same external exclusion topology
	// mutation requires.
	onRepair func(owner kautz.Str, copied int)
}

// Epoch returns the topology epoch: a counter bumped by every mutation that
// can move region ownership — splits (joins), departures, crashes and
// replication-degree changes. Fingerprints and snapshots carry it; routing
// state learned outside the network is validated per slot instead (IDAt: a
// live slot still carrying the identifier it was learned under owns exactly
// that identifier's region, whatever happened elsewhere). Reads are safe
// concurrently with queries; the counter only advances under the same
// external exclusion topology mutation requires.
func (n *Network) Epoch() uint64 { return n.epoch.Load() }

// New creates a minimal network of the three seed peers 0, 1 and 2, with
// ObjectIDs of length k. The seed determines all subsequent randomized
// choices (join targets), making builds reproducible.
func New(k int, seed int64) (*Network, error) {
	if k < 2 || k > kautz.MaxRankLen {
		return nil, fmt.Errorf("fissione: k=%d out of range [2, %d]", k, kautz.MaxRankLen)
	}
	n := &Network{
		k:        k,
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		replicas: 1,
	}
	n.cover.reset(3)
	for i, id := range []kautz.Str{"0", "1", "2"} {
		s, _ := n.alloc(id) // an empty cover refuses no seed name
		n.orderInsert(i, s)
	}
	if err := n.refreshAll(slices.Clone(n.order)); err != nil {
		return nil, err
	}
	return n, nil
}

// BuildRandom creates a network of size peers grown by random joins (each
// join hashes to a random namespace position and splits the local
// length-minimum peer there, as FISSIONE joins do). It grows through the
// batch-construction path (see GrowBatch), which is byte-identical to
// sequential joins with the same seed.
func BuildRandom(k, size int, seed int64) (*Network, error) {
	n, err := New(k, seed)
	if err != nil {
		return nil, err
	}
	if err := n.GrowBatch(size - n.Size()); err != nil {
		return nil, err
	}
	return n, nil
}

// BuildBalanced creates a network of size peers by always splitting a peer
// of globally minimal identifier length, yielding identifier lengths that
// differ by at most one across the whole network.
func BuildBalanced(k, size int, seed int64) (*Network, error) {
	n, err := New(k, seed)
	if err != nil {
		return nil, err
	}
	for n.Size() < size {
		shortest := n.order[0]
		for _, s := range n.order[1:] {
			if len(n.nodes[s].id) < len(n.nodes[shortest].id) {
				shortest = s
			}
		}
		if _, err := n.split(shortest); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// K returns the ObjectID length.
func (n *Network) K() int { return n.k }

// Size returns the number of peers.
func (n *Network) Size() int { return len(n.order) }

// Slot returns the slot of the peer with the given identifier — the door by
// which a name enters; everything past it addresses the peer by slot. A slot
// is valid until the next topology mutation.
func (n *Network) Slot(id kautz.Str) (int32, bool) { return n.cover.get(id) }

// Peer returns the peer with the given identifier.
func (n *Network) Peer(id kautz.Str) (*Peer, bool) {
	if s, ok := n.cover.get(id); ok {
		return n.nodes[s].peer, true
	}
	return nil, false
}

// PeerAt returns the peer holding a live slot (one read from Slot or a
// routing table under the current topology).
func (n *Network) PeerAt(slot int32) *Peer { return n.nodes[slot].peer }

// IDAt returns the identifier of the peer holding a slot, without touching
// the peer — empty for a released slot. Any slot the network ever handed out
// may be asked about: the slot space never shrinks.
func (n *Network) IDAt(slot int32) kautz.Str { return n.nodes[slot].id }

// Next returns the slot that follows a live slot in trie order — the owner of
// the region directly above its own — and false at the namespace's high end.
func (n *Network) Next(slot int32) (int32, bool) {
	if i := int(n.nodes[slot].pos) + 1; i < len(n.order) {
		return n.order[i], true
	}
	return 0, false
}

// Out returns the out-neighbor slots of the peer holding a live slot,
// ascending by identifier. The slice is the network's own and must not be
// modified.
func (n *Network) Out(slot int32) []int32 {
	nd := &n.nodes[slot]
	return nd.nbr[:nd.outLen:nd.outLen]
}

// In returns the in-neighbor slots of the peer holding a live slot, ascending
// by identifier. The slice is the network's own and must not be modified.
func (n *Network) In(slot int32) []int32 {
	nd := &n.nodes[slot]
	return nd.nbr[nd.outLen:nd.nbrLen:nd.nbrLen]
}

// neighbors returns a slot's whole table, out-neighbors then in-neighbors.
func (n *Network) neighbors(slot int32) []int32 {
	nd := &n.nodes[slot]
	return nd.nbr[:nd.nbrLen]
}

// Slots returns the size of the slot space: live peers plus released slots
// awaiting reuse. It grows only when a join finds no released slot.
func (n *Network) Slots() int { return len(n.nodes) }

// IDs returns the identifiers of the given live slots, in the same order.
func (n *Network) IDs(slots []int32) []kautz.Str {
	out := make([]kautz.Str, len(slots))
	for i, s := range slots {
		out[i] = n.nodes[s].id
	}
	return out
}

// PeerIDs returns all peer identifiers in ascending order. The returned
// slice is a copy.
func (n *Network) PeerIDs() []kautz.Str { return n.IDs(n.order) }

// RandomPeer returns a peer identifier drawn uniformly — by position in
// ascending identifier order, so seeded draws do not depend on slot
// numbering — from rng (or the network's own source when rng is nil).
func (n *Network) RandomPeer(rng *rand.Rand) kautz.Str {
	if rng == nil {
		rng = n.rng
	}
	return n.nodes[n.order[rng.Intn(len(n.order))]].id
}

// alloc gives a new peer named id a slot — a released one before nodes
// grows — and registers the name. The caller places the slot in order. Like
// rename it fails, changing nothing, when the cover refuses the name.
func (n *Network) alloc(id kautz.Str) (int32, error) {
	s, f := int32(len(n.nodes)), len(n.free)-1
	if f >= 0 {
		s = n.free[f]
	}
	if err := n.cover.put(id, s); err != nil {
		return noSlot, err
	}
	if f >= 0 {
		n.free = n.free[:f]
	} else {
		n.nodes = append(n.nodes, node{})
	}
	n.nodes[s] = node{id: id, peer: newPeer(id)}
	return s, nil
}

// release frees slot s, which the caller has taken out of order. Tables
// still naming it belong to its neighbors, which the caller refreshes.
func (n *Network) release(s int32) {
	n.cover.del(n.nodes[s].id)
	n.nodes[s] = node{}
	n.free = append(n.free, s)
}

// rename gives the peer in slot s the identifier id. Only renames to a trie
// child, parent or vacated position happen, so the caller knows where the
// slot now sorts without searching.
func (n *Network) rename(s int32, id kautz.Str) error {
	nd := &n.nodes[s]
	n.cover.del(nd.id)
	if err := n.cover.put(id, s); err != nil {
		_ = n.cover.put(nd.id, s) // back under the name just unregistered: its cell is free
		return err
	}
	nd.id, nd.peer.id = id, id
	return nil
}

// orderInsert places slot s at position i of the trie order.
func (n *Network) orderInsert(i int, s int32) {
	n.order = slices.Insert(n.order, i, s)
	n.reindex(i)
}

// orderRemove takes the slot at position i out of the trie order.
func (n *Network) orderRemove(i int) {
	n.order = slices.Delete(n.order, i, i+1)
	n.reindex(i)
}

// reindex restores each node's pos for the order's tail from position from.
func (n *Network) reindex(from int) {
	for i := from; i < len(n.order); i++ {
		n.nodes[n.order[i]].pos = int32(i)
	}
}

// Grow performs count random joins.
func (n *Network) Grow(count int) error {
	for i := 0; i < count; i++ {
		if _, err := n.Join(); err != nil {
			return fmt.Errorf("grow join %d: %w", i, err)
		}
	}
	return nil
}

// Join adds one peer: it picks a uniformly random namespace position, finds
// the owning peer, walks to a local minimum of identifier length (preserving
// the neighborhood invariant) and splits it. It returns the identifier of
// the newly created peer.
func (n *Network) Join() (kautz.Str, error) {
	target := kautz.Random(n.rng, n.k)
	n.joins++
	owner, err := n.ownerSlot(target)
	if err != nil {
		return "", err
	}
	created, err := n.split(n.walkToLocalMin(owner, false))
	if err != nil {
		return "", err
	}
	return n.nodes[created].id, nil
}

// shorterNeighbor returns, among the neighbors nbr of slot s, one with a
// strictly shorter identifier — the shortest, then the smallest, for
// determinism.
func (n *Network) shorterNeighbor(s int32, nbr []int32) (int32, bool) {
	best, at := n.nodes[s].id, s
	for _, c := range nbr {
		if id := n.nodes[c].id; len(id) < len(best) || (len(id) == len(best) && id < best) {
			best, at = id, c
		}
	}
	return at, len(best) < len(n.nodes[s].id)
}

// walkToLocalMin follows neighbor links from start to a peer whose
// identifier is no longer than any of its neighbors'. Each step moves to a
// strictly shorter neighbor, so the walk terminates. live derives each
// neighbor list from the cover instead of reading the stored table, which
// the batch build leaves stale; on fresh tables the two walks are the same.
func (n *Network) walkToLocalMin(start int32, live bool) int32 {
	var buf [maxDegree]int32
	for cur := start; ; {
		nbr := n.neighbors(cur)
		if live {
			nbr = n.appendIn(n.appendOut(buf[:0], cur), cur)
		}
		next, ok := n.shorterNeighbor(cur, nbr)
		if !ok {
			return cur
		}
		cur = next
	}
}

// divide splits the region of slot s between its peer and a freshly
// allocated one: s's two children in the partition trie become the
// identifiers, the existing peer is renamed to the lower child and the new
// peer takes the upper with the objects falling in its half. Order, tables,
// replicas and the epoch are left to the caller.
func (n *Network) divide(s int32) (created int32, err error) {
	id := n.nodes[s].id
	if len(id)+1 >= n.k {
		return 0, fmt.Errorf("fissione: cannot split %q: identifier would reach ObjectID length %d", id, n.k)
	}
	ext := kautz.Extensions(id)
	if err := n.rename(s, id+kautz.Str(ext[0])); err != nil {
		return 0, err
	}
	if created, err = n.alloc(id + kautz.Str(ext[1])); err != nil {
		return 0, err
	}
	n.nodes[s].peer.moveObjectsWithPrefix(n.nodes[created].id, n.nodes[created].peer)
	return created, nil
}

// split divides the region of slot s (see divide) and restores every
// derived structure. No identifier sorts between a peer's and its lower
// child's, nor between the two children: s stays where it is in trie order
// and the new slot, which split returns, follows it. An error past the divide
// reports a table the invariant no longer bounds (refreshTables); the split
// itself — cover, order, replicas, epoch — is complete.
func (n *Network) split(s int32) (int32, error) {
	created, err := n.divide(s)
	if err != nil {
		return 0, err
	}
	n.orderInsert(int(n.nodes[s].pos)+1, created)
	err = n.refreshAll(append([]int32{s, created}, n.neighbors(s)...))
	n.repairAround(n.nodes[s].id, n.nodes[created].id)
	n.epoch.Add(1)
	return created, err
}

// Leave removes the peer id gracefully, reassigning its region and objects
// while preserving the prefix cover and the neighborhood invariant.
//
// If the departing peer's trie sibling is itself a leaf peer and absorbing
// the pair's parent region violates no invariant, the sibling takes over
// (case A). Otherwise a globally deepest sibling leaf pair is merged — which
// is always invariant-safe — and the peer freed by that merge adopts the
// departing peer's identifier and objects (case B). A merged pair's parent
// sorts where its children did, so every rename keeps its place in order.
func (n *Network) Leave(id kautz.Str) error {
	s, ok := n.cover.get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPeer, id)
	}
	if n.Size() <= 3 {
		return ErrTooSmall
	}
	p := n.nodes[s].peer

	// Case A: direct sibling merge.
	if sib, ok := n.cover.sibling(id); ok && n.mergeSafe(s, sib) {
		sibID := n.nodes[sib].id
		affected := slices.Concat(n.neighbors(s), n.neighbors(sib), []int32{sib})
		n.takeover(p, n.nodes[sib].peer)
		n.orderRemove(int(n.nodes[s].pos))
		n.release(s)
		err := cmp.Or(n.rename(sib, id[:len(id)-1]), n.refreshAll(affected))
		n.repairAround(id, sibID, n.nodes[sib].id)
		n.epoch.Add(1)
		return err
	}

	// Case B: merge a globally deepest sibling pair and relocate the freed
	// peer into the departing peer's position.
	keep, freed, ok := n.deepestSiblingPair(s)
	if !ok {
		return fmt.Errorf("%w: no mergeable sibling pair", ErrCorrupt)
	}
	u0, u1, fp := n.nodes[keep].id, n.nodes[freed].id, n.nodes[freed].peer
	affected := slices.Concat(n.neighbors(s), n.neighbors(keep), n.neighbors(freed), []int32{keep, freed})

	// Merge the pair: keep absorbs the parent region.
	n.takeover(fp, n.nodes[keep].peer)
	n.orderRemove(int(n.nodes[freed].pos))

	// Relocate the freed peer into the departing peer's identity.
	n.takeover(p, fp)
	n.nodes[freed].pos = n.nodes[s].pos
	n.order[n.nodes[s].pos] = freed

	// The cover stays prefix-free at every step: each name is unregistered
	// before the one that replaces it, the pair's parent last.
	n.release(s)
	err := cmp.Or(n.rename(freed, id), n.rename(keep, u0[:len(u0)-1]), n.refreshAll(affected))
	n.repairAround(u0, u1, n.nodes[keep].id, id)
	n.epoch.Add(1)
	return err
}

// takeover moves src's whole store into dst for a departure or merge. On a
// replicated network the stores may overlap — dst often already holds a
// replica copy of src's region (the trie sibling is usually the first
// successor) — so the move takes the multiset maximum; without replication
// the stores are disjoint and the plain merge is kept byte for byte.
func (n *Network) takeover(src, dst *Peer) { src.moveAllObjects(dst, n.replicas > 1) }

// mergeSafe reports whether merging the leaf peers in slots a and b into
// their parent keeps the neighborhood invariant: no neighbor of either may
// be longer than the pair (the merged peer is one symbol shorter).
func (n *Network) mergeSafe(a, b int32) bool {
	l := len(n.nodes[a].id)
	for _, s := range [2]int32{a, b} {
		for _, nb := range n.neighbors(s) {
			if len(n.nodes[nb].id) > l {
				return false
			}
		}
	}
	return true
}

// deepestSiblingPair finds two sibling leaf peers of maximal identifier
// length — the lower first, as order meets it first — excluding the
// departing slot exclude (whose own sibling merge was already ruled out).
func (n *Network) deepestSiblingPair(exclude int32) (a, b int32, ok bool) {
	depth := 0
	for _, s := range n.order {
		id := n.nodes[s].id
		if s == exclude || len(id) <= depth {
			continue
		}
		if sib, found := n.cover.sibling(id); found && sib != exclude {
			a, b, depth, ok = s, sib, len(id), true
		}
	}
	return a, b, ok
}

// ownerSlot returns the slot of the peer owning objectID (the unique peer
// whose identifier is a prefix of it).
func (n *Network) ownerSlot(objectID kautz.Str) (int32, error) {
	if len(objectID) != n.k || !kautz.Valid(objectID) {
		return 0, fmt.Errorf("%w: %q", ErrBadObjectID, objectID)
	}
	if s, ok := n.cover.owner(objectID); ok {
		return s, nil
	}
	return 0, fmt.Errorf("%w: no owner for %q", ErrCorrupt, objectID)
}

// OwnerSlot returns the slot of the peer owning objectID, a Kautz string of
// the network's length k.
func (n *Network) OwnerSlot(objectID kautz.Str) (int32, bool) {
	return n.cover.owner(objectID)
}

// OwnerOf returns the identifier of the peer owning objectID.
func (n *Network) OwnerOf(objectID kautz.Str) (kautz.Str, error) {
	s, err := n.ownerSlot(objectID)
	if err != nil {
		return "", err
	}
	return n.nodes[s].id, nil
}

// member returns the j-th member (0 = the owner) of the replica group of
// the owner at trie position pos: its j-th successor in circular trie
// order. j is below the effective replication degree, so one wrap suffices.
func (n *Network) member(pos, j int) *Peer {
	i := pos + j
	if i >= len(n.order) {
		i -= len(n.order)
	}
	return n.nodes[n.order[i]].peer
}

// PublishAt stores obj under objectID on every member of its region's
// replica group directly (without routing) and returns the owner: PublishRec
// for a caller that holds the ObjectID and the name apart.
func (n *Network) PublishAt(objectID kautz.Str, obj Object) (kautz.Str, error) {
	if _, err := n.ownerSlot(objectID); err != nil { // the check on a name from outside
		return "", err
	}
	return n.PublishRec(kautz.Rank(objectID), string(objectID)+obj.Name, obj.Values)
}

// PublishRec stores an object on every member of its region's replica group
// directly (without routing) and returns the owner. rec is the object's
// record — its ObjectID, whose rank is key, then its name — and is kept as
// given, shared by every member; values are copied into each member's column.
// The fan-out applies member by member in placement order (owner first) under
// each member's own store lock, so it runs concurrently with queries and
// other publishes; a reader racing the fan-out may observe the object on
// some members before others. Routing-accounted publication is provided by
// the query engine's Lookup.
func (n *Network) PublishRec(key uint64, rec string, values []float64) (kautz.Str, error) {
	s, ok := n.cover.ownerKey(key, n.k)
	if !ok || len(rec) < n.k || len(values) > math.MaxUint16 {
		return "", fmt.Errorf("%w: rank %d, a %d-byte record, %d values", ErrBadObjectID, key, len(rec), len(values))
	}
	owner, slot := &n.nodes[s], Slot{Key: key, Rec: rec, ILen: uint16(n.k), N: uint16(len(values))}
	for j, r := 0, n.effectiveReplicas(); j < r; j++ {
		n.member(int(owner.pos), j).addObject(slot, values)
	}
	return owner.id, nil
}

// UnpublishAt removes one stored occurrence of obj under objectID from
// every member of its region's replica group and returns the owner:
// UnpublishKey for a caller that holds the ObjectID.
func (n *Network) UnpublishAt(objectID kautz.Str, obj Object) (kautz.Str, error) {
	if _, err := n.ownerSlot(objectID); err != nil {
		return "", err
	}
	return n.UnpublishKey(kautz.Rank(objectID), obj.Name, obj.Values)
}

// UnpublishKey removes one stored occurrence of the object with the given
// name and values under the ObjectID of rank key from every member of its
// region's replica group and returns the owner. It returns ErrNoSuchObject
// when no member stored a matching object. Like PublishRec, the fan-out
// applies member by member in placement order.
func (n *Network) UnpublishKey(key uint64, name string, values []float64) (kautz.Str, error) {
	s, ok := n.cover.ownerKey(key, n.k)
	if !ok {
		return "", fmt.Errorf("%w: rank %d", ErrBadObjectID, key)
	}
	owner, removed := &n.nodes[s], false
	for j, r := 0, n.effectiveReplicas(); j < r; j++ {
		if n.member(int(owner.pos), j).removeObject(key, name, values) {
			removed = true
		}
	}
	if !removed {
		id, _ := kautz.FromRank(key, n.k) // in range: the cover found its owner
		return "", fmt.Errorf("%w: %q at %q", ErrNoSuchObject, name, id)
	}
	return owner.id, nil
}

// OwnersIntersecting returns the identifiers of all peers whose region
// intersects prefix·*: either the single peer whose identifier covers
// prefix, or every peer whose identifier extends prefix. Results ascend.
func (n *Network) OwnersIntersecting(prefix kautz.Str) []kautz.Str {
	return n.IDs(n.cover.appendUnder(nil, 0, prefix, noSlot))
}

// appendOut derives slot s's out-neighbors from the current cover: the
// owners of the shifted region id[1:]·*, excluding s itself, ascending by
// identifier as the hop order requires.
func (n *Network) appendOut(dst []int32, s int32) []int32 {
	return n.cover.appendUnder(dst, 0, n.nodes[s].id.Drop(1), s)
}

// appendIn derives slot s's in-neighbors: peers whose shifted region
// intersects s's region, i.e. the owners intersecting α·id for each symbol
// α ≠ id's first — ascending in α, so the whole list ascends.
func (n *Network) appendIn(dst []int32, s int32) []int32 {
	id := n.nodes[s].id
	for _, a := range []byte(kautz.Alphabet) {
		if a != id[0] {
			dst = n.cover.appendUnder(dst, a, id, s)
		}
	}
	return dst
}

// refreshTables recomputes the routing table of slot s from the cover: the
// out-neighbors followed by the in-neighbors. Every entry is a live slot —
// query hops follow entries without a liveness test, and Audit checks it. A
// table past maxDegree means the cover broke the neighborhood invariant: the
// node keeps the first maxDegree entries — live slots still, so hops stay
// safe and Audit reports the table stale — and the error wraps ErrCorrupt.
func (n *Network) refreshTables(s int32) error {
	var buf [maxDegree]int32
	nbr := n.appendOut(buf[:0], s)
	outLen := min(len(nbr), maxDegree)
	nbr = n.appendIn(nbr, s)
	nd := &n.nodes[s]
	nd.outLen, nd.nbrLen = uint8(outLen), uint8(copy(nd.nbr[:], nbr))
	if len(nbr) > maxDegree {
		return fmt.Errorf("%w: %q has %d neighbors: neighborhood invariant broken", ErrCorrupt, nd.id, len(nbr))
	}
	return nil
}

// refreshAll recomputes the routing table of every slot in set that is
// still live — all of them even past a failure, so that no table is left
// naming a released slot — and returns the first error; set may repeat slots
// and is reordered.
func (n *Network) refreshAll(set []int32) (err error) {
	slices.Sort(set)
	for _, s := range slices.Compact(set) {
		if n.nodes[s].peer != nil {
			if e := n.refreshTables(s); err == nil {
				err = e
			}
		}
	}
	return err
}
