package kautz

import "fmt"

// Region is the Kautz region ⟨Low, High⟩ of Definition 1: the set of Kautz
// strings s of length len(Low) with Low ≼ s ≼ High. Low and High must have
// equal length and Low ≼ High.
type Region struct {
	Low  Str
	High Str
}

// NewRegion validates low and high and returns the region ⟨low, high⟩.
func NewRegion(low, high Str) (Region, error) {
	if !Valid(low) || !Valid(high) {
		return Region{}, fmt.Errorf("%w: region ⟨%s, %s⟩", ErrInvalid, low, high)
	}
	if len(low) != len(high) {
		return Region{}, fmt.Errorf("%w: region bounds %q/%q differ in length", ErrBadLen, low, high)
	}
	if low > high {
		return Region{}, fmt.Errorf("%w: region low %q above high %q", ErrInvalid, low, high)
	}
	return Region{Low: low, High: high}, nil
}

// K returns the string length of the region's elements.
func (r Region) K() int { return len(r.Low) }

// Contains reports whether s (of the region's length) lies in ⟨Low, High⟩.
func (r Region) Contains(s Str) bool {
	return len(s) == len(r.Low) && r.Low <= s && s <= r.High
}

// Size returns the number of Kautz strings in the region.
func (r Region) Size() uint64 {
	lo, _ := PrefixRanks(r.Low, r.K())
	_, hi := PrefixRanks(r.High, r.K())
	return hi - lo + 1
}

// ContainsPrefix reports whether the region contains at least one string
// with prefix p. This is the PIRA forwarding predicate: a child of the
// forward routing tree is searched iff its eventual prefix can still reach a
// target. Prefixes longer than the region's K are compared by truncation
// (they denote a single point of the region's length).
//
// The largest string with prefix p is at least Low exactly when p is at
// least Low's prefix of the same length, and symmetrically for High, so the
// predicate is two prefix comparisons and builds nothing.
func (r Region) ContainsPrefix(p Str) bool {
	if k := r.K(); len(p) > k {
		p = p[:k]
	}
	return p >= r.Low[:len(p)] && p <= r.High[:len(p)]
}

// CommonPrefix returns ComT, the longest common prefix of the region's
// bounds. Every string in the region starts with ComT.
func (r Region) CommonPrefix() Str { return CommonPrefix(r.Low, r.High) }

// SplitByFirstSymbol partitions the region into at most three subregions,
// each of whose elements share their first symbol (and therefore a common
// prefix of length ≥ 1). PIRA requires this so that each subregion's
// destination peers sit at a single level of the forward routing tree. A
// region whose bounds already share their first symbol is returned verbatim.
func (r Region) SplitByFirstSymbol() []Region {
	return r.AppendSplitByFirstSymbol(make([]Region, 0, int(r.High[0]-r.Low[0])+1))
}

// AppendSplitByFirstSymbol appends the parts of SplitByFirstSymbol to dst: a
// caller that splits into a [3]Region of its own frame allocates nothing for
// the slice.
func (r Region) AppendSplitByFirstSymbol(dst []Region) []Region {
	if r.Low[0] == r.High[0] {
		return append(dst, r)
	}
	k := r.K()
	for c := r.Low[0]; c <= r.High[0]; c++ {
		sub := Region{Low: MinExtend(Str(c), k), High: MaxExtend(Str(c), k)}
		if c == r.Low[0] {
			sub.Low = r.Low
		}
		if c == r.High[0] {
			sub.High = r.High
		}
		dst = append(dst, sub)
	}
	return dst
}

// Intersect returns the intersection of r and o and whether it is nonempty.
// Both regions must have the same K.
func (r Region) Intersect(o Region) (Region, bool) {
	low, high := r.Low, r.High
	if o.Low > low {
		low = o.Low
	}
	if o.High < high {
		high = o.High
	}
	if low > high {
		return Region{}, false
	}
	return Region{Low: low, High: high}, true
}

// Strings materializes the region's elements in ascending order. Intended
// for tests and small regions.
func (r Region) Strings() []Str {
	out := make([]Str, 0, r.Size())
	for s := r.Low; ; {
		out = append(out, s)
		if s == r.High {
			break
		}
		next, ok := Succ(s)
		if !ok {
			break
		}
		s = next
	}
	return out
}

func (r Region) String() string {
	return fmt.Sprintf("⟨%s, %s⟩", r.Low, r.High)
}
