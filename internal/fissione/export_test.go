package fissione

// RecordChunks returns how many chunk numbers the network's record arena has
// handed out, for package fissione_test to see them reused.
func (n *Network) RecordChunks() int {
	n.recs.mu.Lock()
	defer n.recs.mu.Unlock()
	return len(n.recs.counts)
}
