package workload

import (
	"math"
	"math/rand"
	"time"

	"armada"
)

// zipfBuckets discretizes an attribute space for Zipf rank sampling; rank
// r maps to the r-th bucket from the low end of the space.
const zipfBuckets = 1 << 14

// sampler holds one worker's private randomness and the scenario's
// distributions, so drawing never contends across workers.
type sampler struct {
	rng  *rand.Rand
	sc   *Scenario
	zipf *rand.Zipf
	cum  [numOps]float64 // cumulative mix weights
	// start anchors the drifting hotspot (Scenario.HotDrift): all workers'
	// samplers are created together at run start, so they agree on the hot
	// interval's current position to within sampler-construction time.
	start time.Time
}

func newSampler(sc *Scenario, seed int64) *sampler {
	rng := rand.New(rand.NewSource(seed))
	s := &sampler{rng: rng, sc: sc, start: time.Now()}
	if sc.Keys.Kind == KeyZipf {
		s.zipf = rand.NewZipf(rng, sc.Keys.ZipfS, 1, zipfBuckets-1)
	}
	total := 0.0
	for i, w := range sc.Mix.weights() {
		total += w
		s.cum[i] = total
	}
	return s
}

// nextOp draws one operation kind with probability proportional to its
// mix weight.
func (s *sampler) nextOp() OpKind {
	x := s.rng.Float64() * s.cum[numOps-1]
	for i, c := range s.cum {
		if x < c {
			return OpKind(i)
		}
	}
	return OpKind(numOps - 1)
}

// frac draws a position in [0, 1) according to the key distribution.
func (s *sampler) frac() float64 {
	switch s.sc.Keys.Kind {
	case KeyZipf:
		// Rank 0 is the hottest bucket; jitter uniformly within it.
		return (float64(s.zipf.Uint64()) + s.rng.Float64()) / zipfBuckets
	case KeyHotspot:
		if s.rng.Float64() < s.sc.Keys.HotWeight {
			return s.hotLow() + s.rng.Float64()*s.sc.Keys.HotFraction
		}
		return s.rng.Float64()
	default:
		return s.rng.Float64()
	}
}

// hotLow returns the hot interval's current low edge in [0, 1): pinned at
// 0 without drift, sweeping the whole space once per HotDrift period
// (wrapping) otherwise. The sweep spans 1 − HotFraction so the interval
// never clips at the high end — its width is constant throughout.
func (s *sampler) hotLow() float64 {
	d := s.sc.HotDrift
	if d <= 0 {
		return 0
	}
	turns := time.Since(s.start).Seconds() / d.Seconds()
	return (turns - math.Floor(turns)) * (1 - s.sc.Keys.HotFraction)
}

// value draws one attribute value.
func (s *sampler) value(space armada.AttributeSpace) float64 {
	return space.Low + s.frac()*(space.High-space.Low)
}

// values draws one value per configured attribute.
func (s *sampler) values() []float64 {
	vs := make([]float64, len(s.sc.Attrs))
	for i, a := range s.sc.Attrs {
		vs[i] = s.value(a)
	}
	return vs
}

// ranges draws a range query: every attribute gets an interval centered on
// a drawn key with width a RangeSize fraction of its space. With all
// false, only the first attribute is constrained (the paper's PIRA shape)
// and the remaining spaces are queried whole; with all true every
// attribute is constrained (MIRA).
func (s *sampler) ranges(all bool) []armada.Range {
	rs := make([]armada.Range, len(s.sc.Attrs))
	for i, a := range s.sc.Attrs {
		if i > 0 && !all {
			rs[i] = armada.Range{Low: a.Low, High: a.High}
			continue
		}
		width := (s.sc.RangeSize.MinFrac +
			s.rng.Float64()*(s.sc.RangeSize.MaxFrac-s.sc.RangeSize.MinFrac)) * (a.High - a.Low)
		center := s.value(a)
		lo, hi := center-width/2, center+width/2
		if lo < a.Low {
			lo = a.Low
		}
		if hi > a.High {
			hi = a.High
		}
		if b := s.sc.RangeBuckets; b > 0 {
			// Snap the bounds outward to a b-bucket grid: nearby draws
			// collapse onto byte-identical regions, so hot scans repeat
			// exactly (the same owners again, which is what the route
			// cache rewards) instead of merely overlapping.
			step := (a.High - a.Low) / float64(b)
			lo = a.Low + math.Floor((lo-a.Low)/step)*step
			hi = a.Low + math.Ceil((hi-a.Low)/step)*step
			if hi <= lo {
				hi = lo + step
			}
			if hi > a.High {
				hi = a.High
			}
		}
		rs[i] = armada.Range{Low: lo, High: hi}
	}
	return rs
}
