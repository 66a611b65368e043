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
// with prefix p. This is the PIRA forwarding predicate, which the descent
// runs in ranks (Span.ContainsPrefix): a child of the forward routing tree is
// searched iff its eventual prefix can still reach a target. Prefixes longer
// than the region's K are compared by truncation.
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

// SplitByFirstSymbol partitions the region into at most three subregions,
// each of whose elements share their first symbol (and therefore a common
// prefix of length ≥ 1). PIRA requires this so that each subregion's
// destination peers sit at a single level of the forward routing tree. A
// region whose bounds already share their first symbol is returned verbatim.
func (r Region) SplitByFirstSymbol() []Region {
	parts := make([]Region, 0, int(r.High[0]-r.Low[0])+1)
	for c := r.Low[0]; c <= r.High[0]; c++ {
		sub := r
		if c > r.Low[0] {
			sub.Low = MinExtend(Str(c), r.K())
		}
		if c < r.High[0] {
			sub.High = MaxExtend(Str(c), r.K())
		}
		parts = append(parts, sub)
	}
	return parts
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

// Span is a region in ranks: the ranks [Lo, Hi] of strings of a length k the
// span does not carry, ⟨Low, High⟩ as Span{Rank(Low), Rank(High)}; Lo > Hi
// holds nothing. The strings under a prefix are the ranks whose top digits
// are its rank, so each method answers a Region question — named alike, held
// to it by FuzzRankGeometry — with shifts and integer compares.
type Span struct{ Lo, Hi uint64 }

// Clip returns the part of the span within [lo, hi].
func (s Span) Clip(lo, hi uint64) Span { return Span{Lo: max(s.Lo, lo), Hi: min(s.Hi, hi)} }

// Past returns the part of the span strictly above a keyset cursor — the
// clip to ⟨Succ(cursor), High⟩ — and whether any of it remains; the empty
// cursor clips nothing. This is what makes keyset pagination cheap end to
// end: a later page's descent prunes every branch at or below the cursor, so
// it visits only the owners that still hold unread matches.
func (s Span) Past(cursor Str) (Span, bool) {
	if cursor == "" {
		return s, true
	}
	s.Lo = max(s.Lo, Rank(cursor)+1)
	return s, s.Lo <= s.Hi
}

// suffixRank is Rank(id[h:]) for id of rank r: id[h] above r's low bits.
func suffixRank(id Str, r uint64, h int) uint64 {
	m := uint(len(id) - h - 1)
	return uint64(id[h]-'0')<<m | r&(1<<m-1)
}

// PrefixBlock returns the ranks at length k under id[h:], for id of rank r
// no longer than k: the aligned block whose top digits are the suffix's rank,
// or every rank when h is at or past len(id) and the suffix is empty.
func PrefixBlock(k int, id Str, r uint64, h int) Span {
	if h >= len(id) {
		return Span{Lo: 0, Hi: 3<<uint(k-1) - 1}
	}
	lo, hi := BlockRanks(suffixRank(id, r, h), len(id)-h, k)
	return Span{Lo: lo, Hi: hi}
}

// ContainsPrefix is Region.ContainsPrefix(id.Drop(h)) for id of rank r, no
// longer than k: the rank of id[h:] between the ends shifted down to its
// length. An h at or past len(id) leaves the empty prefix, which it contains.
func (s Span) ContainsPrefix(k int, id Str, r uint64, h int) bool {
	if h >= len(id) {
		return true
	}
	p, shift := suffixRank(id, r, h), uint(k-len(id)+h)
	return p >= s.Lo>>shift && p <= s.Hi>>shift
}

// AppendSplitByFirstSymbol appends Region.SplitByFirstSymbol's parts to dst:
// the span clipped to each first symbol's third of the ranks that it meets.
func (s Span) AppendSplitByFirstSymbol(k int, dst []Span) []Span {
	top := uint(k - 1)
	for c := s.Lo >> top; c <= s.Hi>>top; c++ {
		dst = append(dst, s.Clip(c<<top, (c+1)<<top-1))
	}
	return dst
}

// EntryHeight is len(id) less the longest suffix of id, of rank r, that
// prefixes the common prefix of the span's ends — a prefix of length l both
// ends share: the levels a descent from id does not skip.
func (s Span) EntryHeight(k int, id Str, r uint64) int {
	for l := min(len(id), k); l > 0; l-- {
		if p := s.Lo >> uint(k-l); p == s.Hi>>uint(k-l) && p == suffixRank(id, r, len(id)-l) {
			return len(id) - l
		}
	}
	return len(id)
}
