package fissione

import (
	"fmt"
	"slices"
	"sort"

	"armada/internal/kautz"
	"armada/internal/obs"
)

// Replica groups.
//
// With a replication degree r > 1, each leaf region is owned by a group of
// r peers: the owner (the unique peer whose identifier prefixes the
// region's ObjectIDs) plus its r−1 successors in the sorted identifier
// order. Sorted identifier order is the DFS order of the partition trie,
// so the successors are the owner's trie siblings and their descendants —
// the deterministic, locality-preserving placement D3-Tree-style overlays
// use. Publishes and unpublishes fan out to every group member, owner
// first; reads may be served by any member (the query engine rotates them
// through the group), because every member holds a byte-identical copy of
// the region's objects.
//
// Group membership is a pure function of the current identifier set, so a
// topology change (split, merge, relocation, crash) shifts membership for
// the owners near the touched positions. Each mutation therefore ends with
// a repair pass over that neighborhood: the authoritative content of every
// affected region is reassembled as the multiset union of the surviving
// copies, installed on every current member and dropped from every former
// member. A crash-stop loses nothing as long as one group member survives
// it — with mutations serialized (they require external exclusion), that
// is every single-crash sequence.

// SetReplicas sets the network's replication degree and synchronously
// places (or removes) copies so that every region is replicated on exactly
// min(r, Size()) peers. Like topology mutation, it requires external
// exclusion against every other operation.
func (n *Network) SetReplicas(r int) error {
	if r < 1 {
		return fmt.Errorf("fissione: replication degree %d < 1", r)
	}
	n.replicas = r
	n.syncReplicas()
	n.epoch.Add(1)
	return nil
}

// Replicas returns the configured replication degree (1 = no replication).
func (n *Network) Replicas() int { return n.replicas }

// ReReplications returns the total number of objects copied between peers
// by churn repair since the network was built (provisioning by SetReplicas
// is not counted).
func (n *Network) ReReplications() int64 { return n.reRepl.Value() }

// DescribeMetrics registers the network's repair counters on reg.
func (n *Network) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("fissione_re_replications_total", &n.reRepl)
	reg.MustRegister("fissione_repairs_total", &n.repairs)
}

// effectiveReplicas caps the degree at the network size.
func (n *Network) effectiveReplicas() int { return min(n.replicas, len(n.order)) }

// idPos returns the position of id in trie order — or, for an id no longer
// present, its former neighborhood (the insertion position).
func (n *Network) idPos(id kautz.Str) int {
	i := sort.Search(len(n.order), func(i int) bool { return n.nodes[n.order[i]].id >= id })
	if i == len(n.order) {
		i = 0 // circular: past the end is the start's neighborhood
	}
	return i
}

// groupIDs returns the identifiers of the peers owning a copy of owner's
// region: owner itself followed by its effectiveReplicas−1 successors in
// circular trie order. Audit, repair and provisioning only: the data path
// takes members by position (member, AppendGroupSlots).
func (n *Network) groupIDs(owner kautz.Str) []kautz.Str {
	out := make([]kautz.Str, n.effectiveReplicas())
	for j, pos := 0, n.idPos(owner); j < len(out); j++ {
		out[j] = n.member(pos, j).id
	}
	return out
}

// AppendGroupSlots appends the slots of the replica group of the owner in the
// given slot (owner first, replicas in placement order) to dst and returns
// the extended slice; hot paths bring their own buffer and stay
// allocation-free. Members are the owner's successors by trie position — no
// name is looked up. Safe for concurrent use while the topology is stable.
func (n *Network) AppendGroupSlots(dst []int32, owner int32) []int32 {
	pos := int(n.nodes[owner].pos)
	for j, r := 0, n.effectiveReplicas(); j < r; j++ {
		dst = append(dst, n.memberSlot(pos, j))
	}
	return dst
}

// repairAround restores the replica placement invariant after a topology
// mutation that touched the given identifiers (inserted, removed or
// renamed). Only owners whose groups can have shifted — those within
// replicas+2 circular positions of a touched identifier — are repaired;
// the margin covers every single-event membership move (splits and merges
// shift positions by one, relocations move data together with the adopted
// identifier, and a crashed peer's region reappears at most one position
// away from its replicas).
func (n *Network) repairAround(touched ...kautz.Str) {
	if n.replicas <= 1 {
		return
	}
	margin, size := n.effectiveReplicas()+2, len(n.order)
	var owners []int // trie positions
	for _, id := range touched {
		pos := n.idPos(id)
		for d := -margin; d <= margin; d++ {
			owners = append(owners, ((pos+d)%size+size)%size)
		}
	}
	slices.Sort(owners)
	for _, pos := range slices.Compact(owners) {
		n.repairOwner(pos)
	}
}

// repairOwner reassembles the authoritative content of the region owned by
// the peer at trie position pos from every copy in its positional
// neighborhood, installs it on every current group member and drops it
// from every neighbor that is no longer one. Mutations run under external
// exclusion, so all copies are snapshots of the same quiesced history:
// their multiset union (max multiplicity per object) is exactly the set of
// objects that survive.
func (n *Network) repairOwner(pos int) {
	r, size := n.effectiveReplicas(), len(n.order)
	margin, region := r+2, n.nodes[n.order[pos]].id

	// Candidates: the circular window around the owner where copies of its
	// region can live (current members, former members, and peers that
	// inherited a former member's store wholesale). On a network smaller
	// than the window only its first size offsets name distinct peers. An
	// offset is taken as the distance after the owner, circularly.
	last := min(margin, size-1-margin)
	var auth Run
	for d := -margin; d <= last; d++ {
		auth = merge(auth, n.member(pos, (d%size+size)%size).copyPrefixRun(region), true)
	}
	var copied int
	for d := -margin; d <= last; d++ {
		// The group is the owner and its r-1 successors.
		if after := (d%size + size) % size; after < r {
			copied += n.member(pos, after).setPrefixRun(region, auth)
		} else {
			n.member(pos, after).dropPrefixRun(region)
		}
	}
	if copied > 0 {
		n.reRepl.Add(int64(copied))
		n.repairs.Inc()
	}
}

// syncReplicas rebuilds the whole placement for the current degree: every
// peer keeps only the runs it is entitled to, then every owner's primary
// run is copied to its group. Used by SetReplicas on a stable network (the
// owners hold their primaries, so they are the single source of truth).
func (n *Network) syncReplicas() {
	for _, s := range n.order {
		p := n.PeerAt(s)
		for _, prefix := range n.foreignRunPrefixes(p) {
			if !slices.Contains(n.groupIDs(prefix), p.id) {
				p.dropPrefixRun(prefix)
			}
		}
	}
	if n.replicas <= 1 {
		return
	}
	for pos, s := range n.order {
		owner := n.PeerAt(s)
		run := owner.copyPrefixRun(owner.id)
		for j, r := 1, n.effectiveReplicas(); j < r; j++ {
			n.member(pos, j).setPrefixRun(owner.id, run)
		}
	}
}

// foreignRunPrefixes returns the owner identifiers of every run in p's
// store other than p's own region, in store order.
func (n *Network) foreignRunPrefixes(p *Peer) []kautz.Str {
	var out []kautz.Str
	store := p.AllObjects()
	for i := 0; i < len(store); {
		owner, err := n.OwnerOf(store[i].ObjectID)
		if err != nil {
			i++ // unreachable on an audited cover; skip defensively
			continue
		}
		if owner != p.id {
			out = append(out, owner)
		}
		for i < len(store) && store[i].ObjectID.HasPrefix(owner) {
			i++
		}
	}
	return out
}

// CheckReplicas verifies the replica placement invariant: every group
// member's copy of its owner's region is byte-for-byte identical to the
// owner's, and no peer stores an object of a region whose group it does
// not belong to. With a degree of 1 it verifies the single-owner
// invariant: every peer stores only its own region's objects.
func (n *Network) CheckReplicas() error {
	for pos := range n.order {
		if err := n.checkReplicaRegion(pos); err != nil {
			return err
		}
	}
	return nil
}

// checkReplicaRegion verifies the replica invariant at one trie position:
// every member of its peer's replica group holds a byte-identical copy of
// the peer's region, and the peer's own store contains no run of a region
// whose group it does not belong to.
func (n *Network) checkReplicaRegion(pos int) error {
	p := n.PeerAt(n.order[pos])
	own := p.copyPrefixRun(p.id)
	for j, r := 1, n.effectiveReplicas(); j < r; j++ {
		m := n.member(pos, j)
		if got := m.copyPrefixRun(p.id); len(got.Idx) != len(own.Idx) || diffCount(got, own) != 0 {
			return fmt.Errorf("fissione: replica %q of region %q diverged: holds %d objects, owner holds %d",
				m.id, p.id, len(got.Idx), len(own.Idx))
		}
	}
	for _, prefix := range n.foreignRunPrefixes(p) {
		if !slices.Contains(n.groupIDs(prefix), p.id) {
			return fmt.Errorf("fissione: %q stores objects of region %q but is not in its replica group", p.id, prefix)
		}
	}
	return nil
}
