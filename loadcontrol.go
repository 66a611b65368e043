package armada

import (
	"fmt"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/loadctl"
)

// LoadControlConfig tunes the adaptive load controller enabled by
// WithLoadControl — the controller's own configuration, by alias. Its one
// setting, MaxGrowth, caps how many peers the controller may add; zero
// becomes an eighth of the initial network size (at least 8).
type LoadControlConfig = loadctl.Config

// WithLoadControl runs a background load controller on the network: every
// 100 ms it samples every peer's query-delivery counter and keeps
// per-region EWMA rates (500 ms half-life). A region whose sustained rate
// crosses 150 deliveries/s is split in two while the network has grown by
// fewer than MaxGrowth peers; at the cap the coldest peer's ownership
// migrates toward the hot region instead. Actions are at least 300 ms
// apart, and no split leaves a region fewer than 4 free ObjectID symbols.
// Every action is a regular topology mutation: it runs under the topology
// write lock, repairs replica groups and renames the slots it touches, so
// the route cache and open sessions lose exactly the owners it changed, as
// they do under churn.
//
// A network built with load control owns a background goroutine; call
// Close when done with the network to stop it.
func WithLoadControl(cfg LoadControlConfig) Option {
	return optionFunc(func(c *config) error {
		if cfg.MaxGrowth < 0 {
			return fmt.Errorf("%w: negative load-control growth cap %d", errBadOption, cfg.MaxGrowth)
		}
		c.loadControl = &cfg
		return nil
	})
}

// newLoadController builds the network's controller over its actuator and
// registers the controller's counters; assemble starts it.
func (n *Network) newLoadController(cfg LoadControlConfig, peers int) *loadctl.Controller {
	if cfg.MaxGrowth == 0 {
		cfg.MaxGrowth = max(8, peers/8)
	}
	c := loadctl.New(cfg, loadActuator{n})
	c.DescribeMetrics(n.obs.reg)
	return c
}

// Close releases the network's background resources — today, the load
// controller's goroutine. It is idempotent and a no-op on networks built
// without WithLoadControl.
func (n *Network) Close() error {
	if n.lctl != nil {
		n.lctl.Stop()
	}
	return nil
}

// loadActuator adapts the Network to the controller: samples under the
// topology read lock, acts under the write lock.
type loadActuator struct{ n *Network }

func (a loadActuator) Sample() []loadctl.Sample {
	return peerRows(a.n, func(id string, width int, p *fissione.Peer) loadctl.Sample {
		return loadctl.Sample{ID: id, Width: width, Deliveries: p.Deliveries()}
	})
}

// peerRows builds one row per live peer, in identifier order, under the
// topology read lock; width is the peer's region size exponent (its free
// ObjectID symbols).
func peerRows[T any](n *Network, row func(id string, width int, p *fissione.Peer) T) []T {
	n.mu.RLock()
	defer n.mu.RUnlock()
	k := n.net.K()
	ids := n.net.PeerIDs()
	out := make([]T, 0, len(ids))
	for _, id := range ids {
		if p, ok := n.net.Peer(id); ok {
			out = append(out, row(string(id), k-len(id), p))
		}
	}
	return out
}

func (a loadActuator) Split(id string) (int, int, error) { return a.n.splitRegion(id) }
func (a loadActuator) Migrate(donor, hot string) (int, int, error) {
	return a.n.migrateOwnership(donor, hot)
}

// splitRegion splits the identified peer's region under the topology write
// lock. It returns, failed or not, how far the network's size changed and
// how many extra peers invariant-restoring cascade splits created. The
// fissione split renames the slot it divides, so learned owners go stale
// like they do for joins.
func (n *Network) splitRegion(id string) (grown, extra int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	size := n.net.Size()
	_, _, extra, err = n.net.SplitRegion(kautz.Str(id))
	return n.net.Size() - size, extra, wrapFissioneErr(err, id)
}

// migrateOwnership moves ownership capacity from the donor peer to the hot
// peer's region at constant network size: the donor leaves (its region
// merges into a neighbor), then the hot region — re-resolved through a
// representative ObjectID, since the departure may have renamed or widened
// the hot peer — is split. Both steps are ordinary topology mutations;
// each leaves the network fully consistent, so a split failing after a
// successful departure aborts the migration without corrupting anything —
// and leaves the network a peer smaller: grown reports the size change,
// failed or not, and extra the cascade splits.
func (n *Network) migrateOwnership(donor, hot string) (grown, extra int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	size := n.net.Size()
	defer func() { grown = n.net.Size() - size }()
	if donor == hot {
		return 0, 0, fmt.Errorf("armada: migration donor and hot region are both %q", donor)
	}
	hotID := kautz.Str(hot)
	if _, ok := n.net.Peer(hotID); !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoSuchPeer, hot)
	}
	rep := kautz.MinExtend(hotID, n.net.K())
	if err := n.net.Leave(kautz.Str(donor)); err != nil {
		return 0, 0, wrapFissioneErr(err, donor)
	}
	owner, err := n.net.OwnerOf(rep)
	if err != nil {
		return 0, 0, err
	}
	_, _, extra, err = n.net.SplitRegion(owner)
	return 0, extra, wrapFissioneErr(err, string(owner))
}
