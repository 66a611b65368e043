package armada

import (
	"errors"
	"fmt"
)

// AttributeSpace is the value interval of one object attribute, which the
// naming partitions. A value or a range bound beyond it is accepted: the hash
// clamps a value into it for the ObjectID alone, and a range returns an
// object by its own values.
type AttributeSpace struct {
	Low  float64
	High float64
}

// config collects construction options for a Network.
type config struct {
	seed          int64
	attrs         []AttributeSpace
	replicas      int
	frontierCache int
	shortcutTable int
	loadControl   *LoadControlConfig
	diagnostics   *DiagnosticsConfig
}

// Option configures NewNetwork.
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

// errBadOption tags option validation failures.
var errBadOption = errors.New("armada: invalid option")

// objectIDLength is the ObjectID length NewNetwork builds with (the depth
// of the naming partition tree). It must exceed the longest peer identifier
// the network can grow (above 2·log₂N); 32 supports networks beyond a
// million peers.
const objectIDLength = 32

// WithSeed fixes the pseudo-random seed used for network construction and
// default issuer selection, making runs reproducible. The default is 1.
// Issuers are draws of one sequence (RandomPeer, and every query without an
// issuer): draw i is splitmix64(seed + i·0x9e3779b97f4a7c15) scaled onto the
// peers in identifier order, so from a single goroutine the issuers drawn
// depend only on the seed; concurrent queries share out the draws.
func WithSeed(seed int64) Option {
	return optionFunc(func(c *config) error {
		c.seed = seed
		return nil
	})
}

// WithAttributes declares the attribute spaces objects are named by, in
// attribute order. One space enables single-attribute range queries
// (Single_hash/PIRA); several enable multi-attribute queries
// (Multiple_hash/MIRA). The default is a single [0, 1000] attribute, the
// paper's simulation interval.
func WithAttributes(spaces ...AttributeSpace) Option {
	return optionFunc(func(c *config) error {
		if len(spaces) == 0 {
			return fmt.Errorf("%w: no attribute spaces", errBadOption)
		}
		for i, s := range spaces {
			if !(s.Low < s.High) {
				return fmt.Errorf("%w: attribute %d space [%v, %v]", errBadOption, i, s.Low, s.High)
			}
		}
		c.attrs = append([]AttributeSpace(nil), spaces...)
		return nil
	})
}

// WithReplication stores every object on k peers — the region's owner
// plus its k−1 trie-order successors — instead of one. Publishes and
// unpublishes fan out to the whole group, crashed peers' objects are
// restored from surviving replicas during self-stabilization, and
// deliveries rotate round-robin through the owner's group. The default,
// k = 1, is the paper's single-owner model and preserves the unreplicated
// data path exactly. Degrees are capped at 16; the effective degree never
// exceeds the network size.
func WithReplication(k int) Option {
	return optionFunc(func(c *config) error {
		if k < 1 || k > 16 {
			return fmt.Errorf("%w: replication degree %d outside [1, 16]", errBadOption, k)
		}
		c.replicas = k
		return nil
	})
}

// WithShortcutTable attaches the issuer-side route cache to the network: a
// bounded set of learned owners, capacity of them at most. Every descent
// teaches it the owners it delivered to, and a later lookup, range query —
// single- or multi-attribute — or session page whose destinations it all
// knows is seeded at them directly, one message and one hop each instead of
// a ~log N descent (Stats.DescentsSaved and ShortcutHits = 1, FrontierHits
// too on a range), with replica reads landing on the replica the issuer
// chose without a redirect message. An entry is the slot an owner was seen
// in and the identifier it carried there, and counts only while the slot
// still carries it: churn invalidates exactly the entries of the regions it
// changed — nothing is flushed, no epoch is compared — and costs the saved
// descents, never correctness. The default is no cache.
func WithShortcutTable(capacity int) Option {
	return optionFunc(func(c *config) error {
		if capacity < 1 {
			return fmt.Errorf("%w: shortcut table capacity %d < 1", errBadOption, capacity)
		}
		c.shortcutTable = capacity
		return nil
	})
}

// WithFrontierCache adds capacity owner entries to the route cache.
//
// Deprecated: the frontier cache is folded into the route cache; size that
// with WithShortcutTable. The two capacities add up.
func WithFrontierCache(capacity int) Option {
	return optionFunc(func(c *config) error {
		if capacity < 1 {
			return fmt.Errorf("%w: frontier cache capacity %d < 1", errBadOption, capacity)
		}
		c.frontierCache = capacity
		return nil
	})
}

// WithFlightRecorder attaches the query diagnostics at their default log
// capacity unless WithDiagnostics configures them; WriteFlightTrace renders
// their log of the slowest queries, hops included.
//
// Deprecated: the flight recorder is folded into the diagnostics; use
// WithDiagnostics. capacity is checked and otherwise unused.
func WithFlightRecorder(capacity int) Option {
	return optionFunc(func(c *config) error {
		if capacity < 1 {
			return fmt.Errorf("%w: flight recorder capacity %d < 1", errBadOption, capacity)
		}
		if c.diagnostics == nil {
			c.diagnostics = &DiagnosticsConfig{}
		}
		return nil
	})
}

// MaxSlowLogCapacity bounds DiagnosticsConfig.SlowLogCapacity: the log
// grows to its capacity, so an unbounded one lets a caller ask for any
// amount of memory.
const MaxSlowLogCapacity = 1 << 16

// DiagnosticsConfig tunes the query-diagnostics layer WithDiagnostics
// attaches.
type DiagnosticsConfig struct {
	// SlowLogCapacity is how many of the run's slowest queries the log
	// keeps, ranked by the time their callers waited (Query.QueueWait plus
	// service time); 0 means the default of 256, and at most
	// MaxSlowLogCapacity.
	SlowLogCapacity int
}

// WithDiagnostics attaches the query-diagnostics layer: per-query
// critical-path breakdowns from the trace stream, a cause classifier, a
// bounded log of the slowest queries (SlowQueries) and tail-latency
// attribution (TailAttributionReport), both on the caller's clock:
// Query.QueueWait plus service time. The default is no diagnostics;
// queries then skip all per-query collection.
func WithDiagnostics(dc DiagnosticsConfig) Option {
	return optionFunc(func(c *config) error {
		if dc.SlowLogCapacity < 0 || dc.SlowLogCapacity > MaxSlowLogCapacity {
			return fmt.Errorf("%w: slow-log capacity %d outside [0, %d]", errBadOption, dc.SlowLogCapacity, MaxSlowLogCapacity)
		}
		c.diagnostics = &dc
		return nil
	})
}

func buildConfig(opts []Option) (config, error) {
	c := config{
		seed:     1,
		attrs:    []AttributeSpace{{Low: 0, High: 1000}},
		replicas: 1,
	}
	for _, o := range opts {
		if err := o.apply(&c); err != nil {
			return config{}, err
		}
	}
	return c, nil
}
