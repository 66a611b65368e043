package armada

import (
	"fmt"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/loadctl"
	"armada/internal/obs"
)

// LoadControlConfig tunes the adaptive load controller enabled by
// WithLoadControl — the controller's own configuration, by alias. Zero values
// take the defaults noted on each field; a zero MaxGrowth becomes an eighth of
// the initial network size (at least 8) here.
type LoadControlConfig = loadctl.Config

// WithLoadControl runs a background load controller on the network: it
// samples every peer's query-delivery counter, keeps per-region EWMA
// rates, auto-splits regions whose sustained rate crosses the threshold
// and — at the growth cap, when enabled — migrates ownership from the
// coldest peer toward the hot region. Every action is a regular topology
// mutation: it runs under the topology write lock, repairs replica groups
// and renames the slots it touches, so the route cache and open sessions
// lose exactly the owners it changed, as they do under churn.
//
// A network built with load control owns a background goroutine; call
// Close when done with the network to stop it.
func WithLoadControl(cfg LoadControlConfig) Option {
	return optionFunc(func(c *config) error {
		if cfg.SampleInterval < 0 || cfg.HalfLife < 0 || cfg.Cooldown < 0 {
			return fmt.Errorf("%w: negative load-control duration", errBadOption)
		}
		if cfg.SplitThreshold < 0 {
			return fmt.Errorf("%w: negative load-control split threshold %v", errBadOption, cfg.SplitThreshold)
		}
		if cfg.MinRegionWidth < 0 || cfg.MaxGrowth < 0 {
			return fmt.Errorf("%w: negative load-control width or growth bound", errBadOption)
		}
		c.loadControl = &cfg
		return nil
	})
}

// startLoadControl builds and starts the network's controller; called once
// from NewNetwork after the overlay is up.
func (n *Network) startLoadControl(cfg LoadControlConfig, peers int) {
	if cfg.MaxGrowth == 0 {
		cfg.MaxGrowth = max(8, peers/8)
	}
	n.lctl = loadctl.New(cfg, loadActuator{n})
	n.lctl.DescribeMetrics(n.obs.reg)
	n.lctl.Start()
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

func (a loadActuator) Split(id string) (int, error) { return a.n.splitRegion(id) }
func (a loadActuator) Migrate(donor, hot string) (int, error) {
	return a.n.migrateOwnership(donor, hot)
}

// splitRegion splits the identified peer's region under the topology write
// lock, returning how many extra peers invariant-restoring cascade splits
// created. The fissione split renames the slot it divides, so learned
// owners go stale like they do for joins.
func (n *Network) splitRegion(id string) (extra int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, _, extra, err = n.net.SplitRegion(kautz.Str(id))
	if err == nil {
		if n.obs.flight != nil {
			n.obs.flight.Record(obs.Event{Kind: obs.EvSplit, From: id, V1: int64(extra)})
		}
	}
	return extra, wrapFissioneErr(err, id)
}

// migrateOwnership moves ownership capacity from the donor peer to the hot
// peer's region at constant network size: the donor leaves (its region
// merges into a neighbor), then the hot region — re-resolved through a
// representative ObjectID, since the departure may have renamed or widened
// the hot peer — is split. Both steps are ordinary topology mutations;
// each leaves the network fully consistent, so a split failing after a
// successful departure aborts the migration without corrupting anything.
func (n *Network) migrateOwnership(donor, hot string) (extra int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if donor == hot {
		return 0, fmt.Errorf("armada: migration donor and hot region are both %q", donor)
	}
	hotID := kautz.Str(hot)
	if _, ok := n.net.Peer(hotID); !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchPeer, hot)
	}
	rep := kautz.MinExtend(hotID, n.net.K())
	if err := n.net.Leave(kautz.Str(donor)); err != nil {
		return 0, wrapFissioneErr(err, donor)
	}
	owner, err := n.net.OwnerOf(rep)
	if err != nil {
		return 0, err
	}
	_, _, extra, err = n.net.SplitRegion(owner)
	if err == nil {
		if n.obs.flight != nil {
			n.obs.flight.Record(obs.Event{Kind: obs.EvMigrate, From: donor, To: hot, V1: int64(extra)})
		}
	}
	return extra, wrapFissioneErr(err, string(owner))
}
