package naming

import (
	"fmt"
	"math"

	"armada/internal/kautz"
)

// Helpers only tests call.

// Width returns the length of the interval.
func (s Space) Width() float64 { return s.High - s.Low }

// Spaces returns a copy of the attribute spaces.
func (t *Tree) Spaces() []Space {
	cp := make([]Space, len(t.spaces))
	copy(cp, t.spaces)
	return cp
}

// enumerate returns all Kautz strings of length k in ascending order.
func enumerate(k int) []kautz.Str {
	out := make([]kautz.Str, 0, kautz.SpaceSize(k))
	for r := uint64(0); r < kautz.SpaceSize(k); r++ {
		s, err := kautz.FromRank(r, k)
		if err != nil {
			panic(err) // unreachable: r < SpaceSize(k)
		}
		out = append(out, s)
	}
	return out
}

// Interval is a closed range [Low, High] of one attribute's values.
type Interval struct {
	Low  float64
	High float64
}

// Overlaps reports whether [i.Low, i.High] and [lo, hi] intersect.
func (i Interval) Overlaps(lo, hi float64) bool { return i.Low <= hi && lo <= i.High }

// Subspace returns, for each attribute, the values the hash maps under the
// partition tree node labelled prefix (the empty one is the root): from the
// least value whose leaf is at or past the node's first leaf of that
// attribute to the greatest whose leaf is at or before its last, found by
// bisecting HashRank — monotone in each attribute's value — over the floats
// in their order, the other attributes held at their Low.
func (t *Tree) Subspace(prefix kautz.Str) ([]Interval, error) {
	if len(prefix) > t.k || !kautz.Valid(prefix) {
		return nil, fmt.Errorf("naming: %q is not a partition tree node at k=%d", prefix, t.k)
	}
	lo, hi := kautz.PrefixRanks(prefix, t.k)
	iv := make([]Interval, len(t.spaces))
	values := make([]float64, len(t.spaces))
	for a, s := range t.spaces {
		values[a] = s.Low
	}
	for a, s := range t.spaces {
		mask := t.attrs[a].mask
		// least is the least o in [from, to) at which past holds, else to.
		least := func(from, to int64, past func(uint64) bool) int64 {
			for from < to {
				mid := from + int64(uint64(to-from)/2) // the difference may pass MaxInt64
				values[a] = unord(mid)
				r, err := t.HashRank(values...)
				if err != nil {
					panic(err) // unreachable: a finite value of the space
				}
				if past(r & mask) {
					to = mid
				} else {
					from = mid + 1
				}
			}
			return from
		}
		first := least(ord(s.Low), ord(s.High)+1, func(r uint64) bool { return r >= lo&mask })
		last := least(ord(s.Low), ord(s.High)+1, func(r uint64) bool { return r > hi&mask }) - 1
		iv[a] = Interval{Low: unord(first), High: unord(last)}
		values[a] = s.Low
	}
	return iv, nil
}

// ord numbers the float64s in their order, −0 with +0; unord inverts it.
func ord(v float64) int64 {
	b := int64(math.Float64bits(v))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func unord(o int64) float64 {
	if o < 0 {
		return -math.Float64frombits(uint64(-o))
	}
	return math.Float64frombits(uint64(o))
}
