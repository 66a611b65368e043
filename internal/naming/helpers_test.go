package naming

import "armada/internal/kautz"

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
