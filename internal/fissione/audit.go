package fissione

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"armada/internal/kautz"
)

// IDLengthStats summarizes the distribution of peer identifier lengths. The
// paper's FISSIONE bounds are Max < 2·log₂N and Avg < log₂N.
type IDLengthStats struct {
	Min int
	Max int
	Avg float64
}

// IDLengths returns the identifier length distribution.
func (n *Network) IDLengths() IDLengthStats {
	s := IDLengthStats{Min: math.MaxInt}
	total := 0
	for _, slot := range n.order {
		l := len(n.nodes[slot].id)
		total += l
		s.Min, s.Max = min(s.Min, l), max(s.Max, l)
	}
	s.Avg = float64(total) / float64(len(n.order))
	return s
}

// AvgOutDegree returns the mean out-degree across peers. FISSIONE's average
// degree is 4 (2 out + 2 in on average; out-degree alone averages 2).
func (n *Network) AvgOutDegree() float64 {
	total := 0
	for _, s := range n.order {
		total += len(n.Out(s))
	}
	return float64(total) / float64(len(n.order))
}

// AvgDegree returns the mean total degree (in + out) across peers.
func (n *Network) AvgDegree() float64 {
	total := 0
	for _, s := range n.order {
		total += len(n.neighbors(s))
	}
	return float64(total) / float64(len(n.order))
}

// CheckSlots verifies the slot bookkeeping every other structure is
// addressed through: the live slots in order and the free list partition
// the node array; order ascends strictly by identifier; each live node
// holds a peer of the same name and records its position in order; a free
// node is zero; and the cover indexes exactly that (checkTrie).
func (n *Network) CheckSlots() error {
	if len(n.order)+len(n.free) != len(n.nodes) {
		return fmt.Errorf("%w: %d slots hold %d live + %d free peers", ErrCorrupt, len(n.nodes), len(n.order), len(n.free))
	}
	seen := make([]bool, len(n.nodes))
	claim := func(s int32, live bool) error {
		if s < 0 || int(s) >= len(seen) || seen[s] || (n.nodes[s].peer != nil) != live {
			return fmt.Errorf("%w: slot %d is out of range, listed twice, or listed live=%t against its peer", ErrCorrupt, s, live)
		}
		seen[s] = true
		return nil
	}
	for i, s := range n.order {
		if err := claim(s, true); err != nil {
			return err
		}
		nd := &n.nodes[s]
		if nd.peer.id != nd.id || nd.pos != int32(i) {
			return fmt.Errorf("%w: slot %d (%q) at position %d: peer is %q, pos %d", ErrCorrupt, s, nd.id, i, nd.peer.id, nd.pos)
		}
		if i > 0 && n.nodes[n.order[i-1]].id >= nd.id {
			return fmt.Errorf("%w: order not ascending at position %d: %q after %q", ErrCorrupt, i, nd.id, n.nodes[n.order[i-1]].id)
		}
	}
	for _, s := range n.free {
		if err := claim(s, false); err != nil {
			return err
		}
		if n.nodes[s] != (node{}) {
			return fmt.Errorf("%w: free slot %d still holds %+v", ErrCorrupt, s, n.nodes[s])
		}
	}
	return n.checkTrie()
}

// checkTrie verifies the cover against order, which CheckSlots has vouched
// for. Every inner node is linked from exactly one cell or released and
// empty, so the links form a tree; its in-order walk is order, and each
// identifier's own path ends on its slot; and the N leaves hang from N−3
// linked nodes: none is childless or has one child, and the root has three.
func (n *Network) checkTrie() error {
	c := &n.cover
	if len(c.cells) < firstNode || len(c.cells)&1 != 0 || c.cells[0] != rootBase || c.cells[noCell] != 0 {
		return fmt.Errorf("%w: cover of %d cells has no root", ErrCorrupt, len(c.cells))
	}
	claimed := make([]bool, len(c.cells)/2)
	claim := func(base int32) bool {
		ok := base >= firstNode && base&1 == 0 && int(base) < len(c.cells) && !claimed[base/2]
		if ok {
			claimed[base/2] = true
		}
		return ok
	}
	for at, v := range c.cells[rootBase:] {
		if v > 0 && !claim(v) {
			return fmt.Errorf("%w: cover cell %d links inner node %d, which is out of range or linked twice", ErrCorrupt, rootBase+at, v)
		}
	}
	linked := (len(c.cells)-firstNode)/2 - len(c.free)
	for _, f := range c.free {
		if !claim(f) || c.cells[f]|c.cells[f+1] != 0 {
			return fmt.Errorf("%w: released inner node %d is out of range, still linked, listed twice or not empty", ErrCorrupt, f)
		}
	}
	if slices.Contains(claimed[firstNode/2:], false) || linked != len(n.order)-3 {
		return fmt.Errorf("%w: %d peers hang from %d linked inner nodes, want three fewer, or a node dangles: neither linked nor released", ErrCorrupt, len(n.order), linked)
	}
	if walk := c.appendUnder(make([]int32, 0, len(n.order)), 0, "", noSlot); !slices.Equal(walk, n.order) {
		return fmt.Errorf("%w: the cover's in-order walk is not what order holds", ErrCorrupt)
	}
	for _, s := range n.order {
		if at, ok := c.get(n.nodes[s].id); !ok || at != s {
			return fmt.Errorf("%w: cover resolves %q to slot %d (%t), not what order holds: slot %d", ErrCorrupt, n.nodes[s].id, at, ok, s)
		}
	}
	return nil
}

// CheckCover verifies that the peer identifiers form a prefix-free exact
// cover of KautzSpace(2,k): no identifier is a prefix of another, and the
// regions sum to the whole namespace.
func (n *Network) CheckCover() error {
	ids := n.PeerIDs() // sorted
	maxLen := 0
	for _, id := range ids {
		if !kautz.Valid(id) || len(id) == 0 || len(id) >= n.k {
			return fmt.Errorf("%w: identifier %q invalid for k=%d", ErrCorrupt, id, n.k)
		}
		if len(id) > maxLen {
			maxLen = len(id)
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i].HasPrefix(ids[i-1]) {
			return fmt.Errorf("%w: %q is a prefix of %q", ErrCorrupt, ids[i-1], ids[i])
		}
	}
	// Each identifier of length l covers 2^(maxLen-l) slots of a depth-maxLen
	// expansion; a full cover sums to 3·2^(maxLen-1).
	var total uint64
	for _, id := range ids {
		total += uint64(1) << uint(maxLen-len(id))
	}
	if want := uint64(3) << uint(maxLen-1); total != want {
		return fmt.Errorf("%w: regions cover %d/%d of the namespace", ErrCorrupt, total, want)
	}
	return nil
}

// CheckInvariant verifies the neighborhood invariant: the identifier
// lengths of any pair of neighboring peers differ by at most one.
func (n *Network) CheckInvariant() error {
	for _, s := range n.order {
		if err := n.checkPeerInvariant(s); err != nil {
			return err
		}
	}
	return nil
}

// checkPeerInvariant verifies the neighborhood invariant at one slot, whose
// table checkPeerTables has vouched for.
func (n *Network) checkPeerInvariant(s int32) error {
	for _, nb := range n.neighbors(s) {
		if d := len(n.nodes[s].id) - len(n.nodes[nb].id); d > 1 || d < -1 {
			return fmt.Errorf("fissione: neighborhood invariant violated: |%q|-|%q| = %d", n.nodes[s].id, n.nodes[nb].id, d)
		}
	}
	return nil
}

// CheckTables verifies that every peer's stored routing table names live
// slots only, matches the tables derived from the current cover, and that
// in/out lists are duals.
func (n *Network) CheckTables() error {
	for _, s := range n.order {
		if err := n.checkPeerTables(s); err != nil {
			return err
		}
	}
	return nil
}

// checkPeerTables verifies one slot's stored routing table: every entry is
// a live slot — the invariant that lets a query hop follow an entry without
// a liveness test — each list ascends by identifier and equals the derived
// one, and every out-edge is mirrored in its target's in-list.
func (n *Network) checkPeerTables(s int32) error {
	id := n.nodes[s].id
	for _, nb := range n.neighbors(s) {
		if nb < 0 || int(nb) >= len(n.nodes) || n.nodes[nb].peer == nil {
			return fmt.Errorf("fissione: table of %q names slot %d, which holds no peer", id, nb)
		}
	}
	byID := func(a, b int32) int { return cmp.Compare(n.nodes[a].id, n.nodes[b].id) }
	for _, l := range [2]struct {
		name       string
		have, want []int32
	}{{"out", n.Out(s), n.appendOut(nil, s)}, {"in", n.In(s), n.appendIn(nil, s)}} {
		if !slices.Equal(l.have, l.want) || !slices.IsSortedFunc(l.have, byID) {
			return fmt.Errorf("fissione: stale %s-table at %q: have %v, want %v", l.name, id, n.IDs(l.have), n.IDs(l.want))
		}
	}
	for _, nb := range n.Out(s) {
		if !slices.Contains(n.In(nb), s) {
			return fmt.Errorf("fissione: %q -> %q edge not mirrored in in-table", id, n.nodes[nb].id)
		}
	}
	return nil
}

// Audit runs every structural check; with a replication degree above 1 it
// also verifies byte-for-byte replica-set consistency (CheckReplicas).
func (n *Network) Audit() error {
	return n.AuditSampled(0)
}

// AuditSampled runs the structural checks on a deterministic evenly-spaced
// sample of roughly the given number of peers instead of all of them. The
// slot and cover checks still run in full — each is a single O(N) pass and
// global by nature — while the per-peer table, invariant and replica checks
// are sampled. A sample of zero or at least the network size is the full
// Audit. The sample is deterministic (every ceil(N/sample)-th identifier in
// sorted order), so repeated audits of an unchanged network check the same
// peers.
func (n *Network) AuditSampled(sample int) error {
	if err := n.CheckSlots(); err != nil {
		return err
	}
	if err := n.CheckCover(); err != nil {
		return err
	}
	stride := 1
	if sample > 0 && sample < len(n.order) {
		stride = (len(n.order) + sample - 1) / sample
	}
	for i := 0; i < len(n.order); i += stride {
		if err := n.checkPeerTables(n.order[i]); err != nil {
			return err
		}
		if err := n.checkPeerInvariant(n.order[i]); err != nil {
			return err
		}
	}
	for i := 0; n.replicas > 1 && i < len(n.order); i += stride {
		if err := n.checkReplicaRegion(i); err != nil {
			return err
		}
	}
	return nil
}

// PeersIntersectingRegion returns, from the global view, the identifiers of
// all peers owning at least one ObjectID in the region — the ground-truth
// destination set ("Destpeers") used to validate query engines.
func (n *Network) PeersIntersectingRegion(r kautz.Region) []kautz.Str {
	var out []kautz.Str
	for _, s := range n.order {
		if id := n.nodes[s].id; r.ContainsPrefix(id) {
			out = append(out, id)
		}
	}
	return out
}
