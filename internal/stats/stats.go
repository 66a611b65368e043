// Package stats provides the small numeric summaries used by the
// experiment harness and the workload engine.
package stats

import (
	"math"
	"sort"
)

// Sample accumulates observations of one metric. It is not safe for
// concurrent use: concurrent recorders keep one each and Merge them.
type Sample struct {
	values []float64
	// sorted caches the ascending order of values for Percentile; Add
	// invalidates it, so repeated quantile reads over a large sample sort
	// once instead of once per call.
	sorted []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = nil
}

// AddInt records one integer observation.
func (s *Sample) AddInt(v int) { s.Add(float64(v)) }

// Merge records every observation of other.
func (s *Sample) Merge(other *Sample) {
	if other == nil || len(other.values) == 0 {
		return
	}
	s.values = append(s.values, other.values...)
	s.sorted = nil
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range s.values {
		total += v
	}
	return total / float64(len(s.values))
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.values {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// ensureSorted (re)builds the sorted cache when stale.
func (s *Sample) ensureSorted() []float64 {
	if s.sorted == nil && len(s.values) > 0 {
		s.sorted = append([]float64(nil), s.values...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := s.ensureSorted()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
