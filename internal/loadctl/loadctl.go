// Package loadctl is Armada's adaptive load controller: a per-region load
// accountant plus the policy that decides when a hot region is split and
// when ownership migrates from an underloaded peer toward a hot one.
//
// The accountant keeps an exponentially weighted moving average (EWMA) of
// each region's delivery rate, fed by periodic samples of the per-peer
// cumulative delivery counters. The controller then applies a simple,
// deterministic policy per tick:
//
//   - A region whose sustained rate crosses SplitThreshold is split in two
//     (adding one peer at the hotspot), as long as the network has not yet
//     grown by MaxGrowth peers and the region is wide enough to split.
//   - At the growth cap, relief comes from migration instead (when
//     enabled): the coldest sufficiently idle peer leaves, and the hot
//     region is split — ownership capacity moves from the cold spot to the
//     hot one at constant network size.
//   - Actions are separated by at least Cooldown, so one hot window never
//     triggers a burst of topology churn.
//
// The package is policy only: it knows nothing about Kautz strings or
// topology locks. The embedding layer supplies an Actuator that samples
// the peers and performs splits and migrations under its own exclusion
// scheme, and decides the controller's sampling cadence (Start/Stop run
// the built-in ticker loop; tests drive Tick directly with synthetic
// clocks). This is the D3-Tree idea — deterministic load balancing over a
// decentralized tree — transplanted onto FISSIONE's region trie.
package loadctl

import (
	"math"
	"sort"
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
// perform the topology change under write exclusion and report how many
// peers beyond the nominal one the action created (invariant-restoring
// cascade splits).
type Actuator interface {
	Sample() []Sample
	Split(id string) (extra int, err error)
	Migrate(donor, hot string) (extra int, err error)
}

// Config tunes the controller. Zero values take the defaults noted on each
// field.
type Config struct {
	// SampleInterval is the tick period of the Start loop (default 100ms).
	SampleInterval time.Duration
	// HalfLife is the EWMA half-life: how long a rate change takes to show
	// half its magnitude (default 500ms). Longer half-lives demand more
	// sustained heat before any action.
	HalfLife time.Duration
	// SplitThreshold is the sustained per-region delivery rate
	// (deliveries/second, EWMA) that triggers relief (default 1000).
	SplitThreshold float64
	// Cooldown is the minimum time between two control actions (default
	// 300ms).
	Cooldown time.Duration
	// MinRegionWidth is the minimum number of free ObjectID symbols a
	// region must retain after splitting (default 4): regions narrower
	// than that are left alone however hot they run.
	MinRegionWidth int
	// MaxGrowth caps how many peers auto-splits may add in total; at the
	// cap relief continues through migration when Migrate is set. Zero: the
	// armada facade substitutes an eighth of the initial network size (at
	// least 8) before it builds the controller; New on its own falls back
	// to 64.
	MaxGrowth int
	// Migrate enables ownership migration at the growth cap: the coldest
	// sufficiently idle peer leaves and the hot region splits, so ownership
	// capacity follows the load at constant network size.
	Migrate bool
}

// coldFraction qualifies migration donors: a peer may be asked to leave only
// when its rate is at most this fraction of the mean.
const coldFraction = 0.25

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 100 * time.Millisecond
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 500 * time.Millisecond
	}
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 1000
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 300 * time.Millisecond
	}
	if c.MinRegionWidth <= 0 {
		c.MinRegionWidth = 4
	}
	if c.MaxGrowth <= 0 {
		c.MaxGrowth = 64
	}
	return c
}

// RegionRate is one region's EWMA delivery rate (see Controller.Rates).
type RegionRate struct {
	ID   string
	Rate float64 // deliveries/second
}

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

// New builds a controller over the actuator; cfg zero values take their
// documented defaults. The controller is idle until Start (or Tick).
func New(cfg Config, act Actuator) *Controller {
	return &Controller{
		cfg:   cfg.withDefaults(),
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
	t := time.NewTicker(c.cfg.SampleInterval)
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
		alpha = 1 - math.Exp(-dt*math.Ln2/c.cfg.HalfLife.Seconds())
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
		extra, err := c.act.Split(hot)
		c.noteAction(now, err, func() {
			c.autoSplits.Inc()
			c.cascadeSplits.Add(int64(extra))
			c.grown += 1 + extra
		})
	case actMigrate:
		extra, err := c.act.Migrate(donor, hot)
		c.noteAction(now, err, func() {
			c.migrations.Inc()
			c.cascadeSplits.Add(int64(extra))
			c.grown += extra // one peer left, one was created
		})
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
	if !c.lastAction.IsZero() && now.Sub(c.lastAction) < c.cfg.Cooldown {
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
		splittable := r.width-1 >= c.cfg.MinRegionWidth
		if splittable && (hotID == "" || r.rate > hotRate || (r.rate == hotRate && id < hotID)) {
			hotID, hotRate = id, r.rate
		}
		if coldID == "" || r.rate < coldRate || (r.rate == coldRate && id < coldID) {
			coldID, coldRate = id, r.rate
		}
	}
	if hotID == "" || hotRate < c.cfg.SplitThreshold {
		return actNone, "", ""
	}
	if c.grown < c.cfg.MaxGrowth {
		return actSplit, hotID, ""
	}
	if !c.cfg.Migrate {
		return actNone, "", ""
	}
	mean := total / float64(len(c.rates))
	if coldID == "" || coldID == hotID || coldRate > coldFraction*mean {
		return actNone, "", ""
	}
	return actMigrate, hotID, coldID
}

// noteAction records one attempted action's outcome.
func (c *Controller) noteAction(now time.Time, err error, onSuccess func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Failed attempts advance the cooldown too: a persistently impossible
	// action (identifier-length ceiling, network at minimum size) must not
	// be retried every tick.
	c.lastAction = now
	if err != nil {
		c.failedActions.Inc()
		return
	}
	onSuccess()
}

// DescribeMetrics registers the controller's action counters on reg.
func (c *Controller) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("loadctl_auto_splits_total", &c.autoSplits)
	reg.MustRegister("loadctl_migrations_total", &c.migrations)
	reg.MustRegister("loadctl_cascade_splits_total", &c.cascadeSplits)
	reg.MustRegister("loadctl_failed_actions_total", &c.failedActions)
}

// Rates returns every tracked region's EWMA delivery rate, hottest first —
// the feed behind live region-heat introspection.
func (c *Controller) Rates() []RegionRate {
	c.mu.Lock()
	out := make([]RegionRate, 0, len(c.rates))
	for id, r := range c.rates {
		out = append(out, RegionRate{ID: id, Rate: r.rate})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].ID < out[j].ID
	})
	return out
}
