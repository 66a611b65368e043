package armada

import (
	"fmt"
	"io"
	"math/rand"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/naming"
	"armada/internal/shortcut"
)

// assemble wires the armada layers — naming tree, replication, query
// engine, route cache, observability, load control — around a built fissione
// overlay. NewNetwork and LoadSnapshot share it: the only difference
// between a cold build and a warm start is where the overlay comes from.
func assemble(net *fissione.Network, cfg config) (*Network, error) {
	spaces := make([]naming.Space, len(cfg.attrs))
	for i, a := range cfg.attrs {
		spaces[i] = naming.Space{Low: a.Low, High: a.High}
	}
	tree, err := naming.NewTree(net.K(), spaces...)
	if err != nil {
		return nil, fmt.Errorf("armada: naming tree: %w", err)
	}
	if cfg.replicas != net.Replicas() {
		if err := net.SetReplicas(cfg.replicas); err != nil {
			return nil, fmt.Errorf("armada: replication: %w", err)
		}
	}
	eng, err := core.New(net, tree)
	if err != nil {
		return nil, err
	}
	nw := &Network{
		net:  net,
		tree: tree,
		eng:  eng,
		rng:  rand.New(rand.NewSource(cfg.seed + 1)),
	}
	if capacity := cfg.shortcutTable + cfg.frontierCache; capacity > 0 {
		nw.routes = shortcut.NewTable(capacity)
	}
	nw.initObs(cfg)
	if cfg.loadControl != nil {
		nw.startLoadControl(*cfg.loadControl, net.Size())
	}
	return nw, nil
}

// SaveSnapshot serializes the network's topology — identifier cover,
// routing tables, replication degree, epoch and builder rng state, but no
// stored objects — to w in a versioned binary format. LoadSnapshot
// reconstructs a byte-identical network from it in O(file) time, skipping
// the join-by-join build entirely.
func (n *Network) SaveSnapshot(w io.Writer) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.WriteSnapshot(w)
}

// LoadSnapshot builds a network from a topology snapshot written by
// SaveSnapshot instead of growing one join by join. The snapshot defines
// the topology, so WithK and WithBalancedBuild are superseded by it; every
// other option (attributes, replication, caches, load control, seed for
// issuer selection) applies exactly as in NewNetwork. Stores come back
// empty — objects are not snapshotted.
//
// A network loaded with the same options and seed the snapshotted one was
// built with is byte-identical to it: same cover and routing tables, same
// epoch, and the same future join, publish and query behavior.
func LoadSnapshot(r io.Reader, opts ...Option) (*Network, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	net, err := fissione.LoadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("armada: load snapshot: %w", err)
	}
	return assemble(net, cfg)
}

// TopologyFingerprint returns a digest of the routing-relevant topology:
// the identifier cover, every routing table, the replication degree and
// the epoch. Two networks with equal fingerprints route identically —
// the equality check behind snapshot and batch-build verification.
func (n *Network) TopologyFingerprint() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.net.Fingerprint()
}
