package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quartiles returns the first quartile, the median and the third quartile
// of vs the way Python's statistics.quantiles(vs, n=4) computes them (the
// "exclusive" method), which is what the benchmark contract's spread uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
