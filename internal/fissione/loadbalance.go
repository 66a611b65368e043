package fissione

import (
	"fmt"

	"armada/internal/kautz"
)

// splitCascadeBudget bounds how many preparatory splits SplitRegion may
// perform to make its target a local length minimum. Identifier lengths
// across a FISSIONE network stay within a small band (joins walk to local
// minima), so real cascades are one or two splits deep; the budget is a
// guard against pathological covers, not a tuning knob.
const splitCascadeBudget = 8

// SplitRegion splits the region of peer id in two — the hot-region relief
// operation of the load controller. The peer keeps the lower child
// identifier and a freshly created peer takes the upper child and the
// objects falling in its half, exactly as a join-triggered split does.
//
// A join may split only a local length minimum (the neighborhood invariant
// caps neighbor length differences at one), but a hot peer is wherever the
// load is. When id is longer than one of its neighbors, SplitRegion first
// splits those shorter neighbors — recursively, each at a local minimum of
// its own — until id itself is a local minimum, then splits it. extra
// reports how many such preparatory peers were created beyond the one
// created for id. The cascade is bounded by splitCascadeBudget; exceeding
// it (or reaching the identifier-length ceiling) fails without changing
// anything beyond the preparatory splits already applied, each of which
// left the network fully consistent.
//
// Like every topology mutation, SplitRegion requires external exclusion
// and bumps the topology epoch (once per underlying split).
func (n *Network) SplitRegion(id kautz.Str) (kept, created kautz.Str, extra int, err error) {
	s, ok := n.cover.get(id)
	if !ok {
		return "", "", 0, fmt.Errorf("%w: %q", ErrNoSuchPeer, id)
	}
	budget := splitCascadeBudget
	if err := n.splitShorterNeighbors(s, &budget); err != nil {
		return "", "", splitCascadeBudget - budget, err
	}
	c, err := n.split(s)
	if err != nil {
		return "", "", splitCascadeBudget - budget, err
	}
	return n.nodes[s].id, n.nodes[c].id, splitCascadeBudget - budget, nil
}

// splitShorterNeighbors splits slot s's strictly shorter neighbors (in
// either direction) until s is a local length minimum, recursing so every
// actual split happens at a local minimum — the invariant-preserving split
// site. Each split spends one unit of budget.
func (n *Network) splitShorterNeighbors(s int32, budget *int) error {
	for {
		victim, ok := n.shorterNeighbor(s, n.neighbors(s))
		if !ok {
			return nil
		}
		if *budget <= 0 {
			return fmt.Errorf("fissione: splitting %q needs a neighbor-split cascade beyond %d splits", n.nodes[s].id, splitCascadeBudget)
		}
		if err := n.splitShorterNeighbors(victim, budget); err != nil {
			return err
		}
		*budget--
		if _, err := n.split(victim); err != nil {
			return err
		}
	}
}
