package fissione

import "armada/internal/kautz"

// Helpers only tests call: the owners under a prefix, read off the cover
// trie, and the ground-truth destination set of a region, read off the
// identifier order.

// OwnersIntersecting returns the identifiers of all peers whose region
// intersects prefix·*: either the single peer whose identifier covers
// prefix, or every peer whose identifier extends prefix. Results ascend.
func (n *Network) OwnersIntersecting(prefix kautz.Str) []kautz.Str {
	return n.IDs(n.cover.appendUnder(nil, 0, prefix, noSlot))
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
