// Package loadctl is Armada's adaptive load controller: a per-region load
// accountant plus the policy that decides when a hot region is split and
// when ownership migrates from an underloaded peer toward a hot one.
//
// The accountant keeps an exponentially weighted moving average (EWMA) of
// each region's delivery rate, fed by periodic samples of the per-peer
// cumulative delivery counters. The controller then applies a simple,
// deterministic policy per tick:
//
//   - A region whose sustained rate crosses 150 deliveries/s is split in
//     two (adding one peer at the hotspot), as long as the network has not
//     yet grown by MaxGrowth peers and the region keeps at least 4 free
//     ObjectID symbols after the split.
//   - At the growth cap, relief comes from migration instead: the coldest
//     sufficiently idle peer leaves, and the hot region is split —
//     ownership capacity moves from the cold spot to the hot one at
//     constant network size.
//   - Actions are separated by at least 300 ms, so one hot window never
//     triggers a burst of topology churn.
//
// Rates are EWMAs with a 500 ms half-life, sampled every 100 ms by the
// Start loop.
//
// The package is policy only: it knows nothing about Kautz strings or
// topology locks. The embedding layer supplies an Actuator that samples
// the peers and performs splits and migrations under its own exclusion
// scheme; Start/Stop run the built-in ticker loop, and tests drive Tick
// directly with synthetic clocks. This is the D3-Tree idea — a fixed,
// deterministic load-balancing rule over a decentralized tree —
// transplanted onto FISSIONE's region trie.
package loadctl

import (
	"math"
	"sync"
	"time"

	"armada/internal/obs"
)

// Sample is one peer's load observation: the region identifier, the number
// of free ObjectID symbols below it (how many more times it can split),
// and the cumulative delivery counter.
type Sample struct {
	ID         string
	Width      int
	Deliveries int64
}

// Actuator is the embedding layer's handle the controller acts through.
// Sample must be consistent (taken under a read lock); Split and Migrate
// perform the topology change under write exclusion and report, failed or
// not, how far the attempt changed the network's size (grown) and how many
// of its splits were invariant-restoring cascades beyond the nominal one. A
// failed attempt may still have changed the size: a split cascade keeps the
// preparatory splits it made, and a migration whose split fails keeps the
// donor's departure.
type Actuator interface {
	Sample() []Sample
	Split(id string) (grown, cascades int, err error)
	Migrate(donor, hot string) (grown, cascades int, err error)
}

// Config tunes the controller.
type Config struct {
	// MaxGrowth caps how many peers the controller's actions may add in
	// total; at the cap relief continues through migration. The armada
	// facade defaults it to an eighth of the initial network size (at least
	// 8).
	MaxGrowth int
}

// The controller's fixed rule.
const (
	// tickInterval is the Start loop's sampling period.
	tickInterval = 100 * time.Millisecond
	// halfLife is the EWMA half-life: how long a rate change takes to show
	// half its magnitude.
	halfLife = 500 * time.Millisecond
	// splitThreshold is the sustained per-region delivery rate
	// (deliveries/second, EWMA) that triggers relief.
	splitThreshold = 150
	// cooldown is the minimum time between two control actions.
	cooldown = 300 * time.Millisecond
	// minRegionWidth is the fewest free ObjectID symbols a region keeps
	// after splitting: narrower regions are left alone however hot they run.
	minRegionWidth = 4
	// coldFraction qualifies migration donors: a peer may be asked to leave
	// only when its rate is at most this fraction of the mean.
	coldFraction = 0.25
)

// regionRate is one region's accounting state.
type regionRate struct {
	last  int64   // cumulative deliveries at the previous tick
	rate  float64 // EWMA deliveries/second
	width int     // free ObjectID symbols, from the latest sample
}

// Controller runs the accounting and policy. Create with New, then either
// Start/Stop the built-in loop or call Tick directly.
type Controller struct {
	cfg Config
	act Actuator

	mu         sync.Mutex
	rates      map[string]*regionRate
	lastTick   time.Time
	lastAction time.Time
	grown      int // net peers added by controller actions

	// Action counters live as registry instruments (see DescribeMetrics).
	autoSplits    obs.Counter
	migrations    obs.Counter
	cascadeSplits obs.Counter
	failedActions obs.Counter

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller over the actuator. The controller is idle until
// Start (or Tick).
func New(cfg Config, act Actuator) *Controller {
	return &Controller{
		cfg:   cfg,
		act:   act,
		rates: make(map[string]*regionRate),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the background tick loop. It is idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() { go c.run() })
}

// Stop terminates the tick loop and waits for it to exit. It is idempotent
// and safe to call on a controller that was never started.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to wait out
	<-c.done
}

func (c *Controller) run() {
	defer close(c.done)
	t := time.NewTicker(tickInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.Tick(now)
		}
	}
}

// Tick performs one controller step at the given time: sample every peer,
// fold the deltas into the EWMA rates, and apply at most one control
// action. The Start loop calls it on each tick; tests call it directly
// with a synthetic clock.
func (c *Controller) Tick(now time.Time) {
	samples := c.act.Sample()

	c.mu.Lock()
	dt := 0.0
	if !c.lastTick.IsZero() {
		dt = now.Sub(c.lastTick).Seconds()
	}
	c.lastTick = now
	alpha := 1.0
	if dt > 0 {
		alpha = 1 - math.Exp(-dt*math.Ln2/halfLife.Seconds())
	}
	seen := make(map[string]struct{}, len(samples))
	for _, s := range samples {
		seen[s.ID] = struct{}{}
		r, ok := c.rates[s.ID]
		if !ok {
			// First observation of this identifier. A split renames the
			// surviving peer (its cumulative counter rides along), so
			// initializing without a rate — rather than treating the whole
			// counter as one tick's delta — both avoids a bogus spike and
			// gives freshly split regions a clean measurement window.
			c.rates[s.ID] = &regionRate{last: s.Deliveries, width: s.Width}
			continue
		}
		if dt > 0 {
			inst := float64(s.Deliveries-r.last) / dt
			r.rate += alpha * (inst - r.rate)
		}
		r.last = s.Deliveries
		r.width = s.Width
	}
	for id := range c.rates {
		if _, ok := seen[id]; !ok {
			delete(c.rates, id) // renamed or departed
		}
	}

	action, hot, donor := c.decide(now)
	c.mu.Unlock()

	switch action {
	case actNone:
		return
	case actSplit:
		grown, cascades, err := c.act.Split(hot)
		c.noteAction(now, grown, cascades, err, &c.autoSplits)
	case actMigrate:
		grown, cascades, err := c.act.Migrate(donor, hot)
		c.noteAction(now, grown, cascades, err, &c.migrations)
	}
}

type action int

const (
	actNone action = iota
	actSplit
	actMigrate
)

// decide picks at most one action from the current rates. The caller holds
// c.mu.
func (c *Controller) decide(now time.Time) (act action, hot, donor string) {
	if !c.lastAction.IsZero() && now.Sub(c.lastAction) < cooldown {
		return actNone, "", ""
	}
	var (
		hotID, coldID     string
		hotRate, coldRate float64
		total             float64
	)
	for id, r := range c.rates {
		total += r.rate
		// Splitting shaves one symbol off the region's width; leave it
		// alone when that would cut below the floor.
		splittable := r.width-1 >= minRegionWidth
		if splittable && (hotID == "" || r.rate > hotRate || (r.rate == hotRate && id < hotID)) {
			hotID, hotRate = id, r.rate
		}
		if coldID == "" || r.rate < coldRate || (r.rate == coldRate && id < coldID) {
			coldID, coldRate = id, r.rate
		}
	}
	if hotID == "" || hotRate < splitThreshold {
		return actNone, "", ""
	}
	if c.grown < c.cfg.MaxGrowth {
		return actSplit, hotID, ""
	}
	mean := total / float64(len(c.rates))
	if coldID == "" || coldID == hotID || coldRate > coldFraction*mean {
		return actNone, "", ""
	}
	return actMigrate, hotID, coldID
}

// noteAction records one attempted action's outcome: the size change and
// cascades count whether or not it failed, and done counts it on success.
func (c *Controller) noteAction(now time.Time, grown, cascades int, err error, done *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Failed attempts advance the cooldown too: a persistently impossible
	// action (identifier-length ceiling, network at minimum size) must not
	// be retried every tick.
	c.lastAction = now
	c.grown += grown
	c.cascadeSplits.Add(int64(cascades))
	if err != nil {
		c.failedActions.Inc()
		return
	}
	done.Inc()
}

// DescribeMetrics registers the controller's action counters on reg.
func (c *Controller) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("loadctl_auto_splits_total", &c.autoSplits)
	reg.MustRegister("loadctl_migrations_total", &c.migrations)
	reg.MustRegister("loadctl_cascade_splits_total", &c.cascadeSplits)
	reg.MustRegister("loadctl_failed_actions_total", &c.failedActions)
}

// Rates returns every tracked region's EWMA delivery rate
// (deliveries/second) by identifier — the feed behind live region-heat
// introspection.
func (c *Controller) Rates() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.rates))
	for id, r := range c.rates {
		out[id] = r.rate
	}
	return out
}
