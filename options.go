package armada

import (
	"errors"
	"fmt"
	"time"
)

// AttributeSpace is the value interval of one object attribute.
type AttributeSpace struct {
	Low  float64
	High float64
}

// config collects construction options for a Network.
type config struct {
	k              int
	seed           int64
	attrs          []AttributeSpace
	balanced       bool
	replicas       int
	frontierCache  int
	shortcutTable  int
	flightRecorder int
	loadControl    *LoadControlConfig
	diagnostics    *DiagnosticsConfig
}

// Option configures NewNetwork.
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

// errBadOption tags option validation failures.
var errBadOption = errors.New("armada: invalid option")

// WithK sets the ObjectID length (the depth of the naming partition tree).
// It must exceed the longest peer identifier the network can grow (above
// 2·log₂N) and defaults to 32, which supports networks beyond a million
// peers.
func WithK(k int) Option {
	return optionFunc(func(c *config) error {
		if k < 2 || k > 62 {
			return fmt.Errorf("%w: k=%d outside [2, 62]", errBadOption, k)
		}
		c.k = k
		return nil
	})
}

// WithSeed fixes the pseudo-random seed used for network construction and
// default issuer selection, making runs reproducible. The default is 1.
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

// WithBalancedBuild grows the initial network by always splitting a
// shortest-identifier peer, yielding identifier lengths within one of each
// other. The default emulates FISSIONE's random joins (hash to a position,
// split the local length minimum there).
func WithBalancedBuild() Option {
	return optionFunc(func(c *config) error {
		c.balanced = true
		return nil
	})
}

// WithReplication stores every object on k peers — the region's owner
// plus its k−1 trie-order successors — instead of one. Publishes and
// unpublishes fan out to the whole group, crashed peers' objects are
// restored from surviving replicas during self-stabilization, and range
// deliveries can be served by any group member (see WithReadPolicy). The
// default, k = 1, is the paper's single-owner model and preserves the
// unreplicated data path exactly. Degrees are capped at 16; the effective
// degree never exceeds the network size.
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

// WithFlightRecorder attaches a query-lifecycle flight recorder to the
// network: a bounded ring buffer retaining the last capacity structured,
// timestamped events — query start/end, every descent hop, seeded sends,
// replica redirects, deliveries, page cuts, replica repairs and
// load-controller actions. Dump it with WriteFlightTrace
// (Chrome trace-event JSON). The default is no recorder; without one,
// queries skip all per-hop event construction.
func WithFlightRecorder(capacity int) Option {
	return optionFunc(func(c *config) error {
		if capacity < 1 {
			return fmt.Errorf("%w: flight recorder capacity %d < 1", errBadOption, capacity)
		}
		c.flightRecorder = capacity
		return nil
	})
}

// DiagnosticsConfig tunes the query-diagnostics layer WithDiagnostics
// attaches.
type DiagnosticsConfig struct {
	// SlowLogCapacity bounds the slow-query ring (records retained);
	// 0 means the default of 256.
	SlowLogCapacity int
	// SlowThreshold fixes the slow-query threshold. The default, 0, is
	// adaptive: an EWMA of the observed p99 query duration, so the log
	// captures the current tail without hand-tuning — nothing is logged
	// until the first 128 queries establish it.
	SlowThreshold time.Duration
	// Objective is the SLO over the paper's delay bound: the fraction of
	// queries that must finish strictly below 2·log₂N hops. 0 means the
	// default of 0.999. The burn-rate monitor divides each window's
	// violation fraction by the remaining error budget (1 − Objective).
	Objective float64
}

// WithDiagnostics attaches the query-diagnostics layer: per-query
// critical-path breakdowns from the trace stream, a cause classifier, a
// bounded slow-query log (SlowQueries), tail-latency attribution
// (TailAttribution) and a multi-window SLO burn-rate monitor over the
// delay bound (SLOStatus). The default is no diagnostics; queries then
// skip all per-query collection.
func WithDiagnostics(dc DiagnosticsConfig) Option {
	return optionFunc(func(c *config) error {
		if dc.SlowLogCapacity < 0 {
			return fmt.Errorf("%w: slow-log capacity %d < 0", errBadOption, dc.SlowLogCapacity)
		}
		if dc.SlowThreshold < 0 {
			return fmt.Errorf("%w: slow threshold %v < 0", errBadOption, dc.SlowThreshold)
		}
		if dc.Objective < 0 || dc.Objective >= 1 {
			return fmt.Errorf("%w: SLO objective %v outside [0, 1)", errBadOption, dc.Objective)
		}
		c.diagnostics = &dc
		return nil
	})
}

func buildConfig(opts []Option) (config, error) {
	c := config{
		k:        32,
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
