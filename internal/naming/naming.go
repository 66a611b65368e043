// Package naming implements Armada's order-preserving object naming: the
// partition tree P(2,k) of the paper's Section 4.1 and the two naming
// algorithms built on it.
//
//   - Single_hash (one attribute) is an interval-preserving surjection from
//     a real interval [L,H] onto KautzSpace(2,k): the image of any
//     subinterval [a,b] is exactly the Kautz region ⟨F(a), F(b)⟩
//     (Definition 2).
//   - Multiple_hash (m attributes) partitions the multi-attribute space onto
//     the same tree in round-robin attribute order and is partial-order
//     preserving (Definitions 3–4): ω1 ≤ ω2 componentwise implies
//     F(ω1) ≼ F(ω2).
//
// The partition tree has k+1 levels. Its root has three children; every
// other internal node has two. Edge labels ascend left to right and differ
// from the parent's incoming edge label, so leaf labels enumerate
// KautzSpace(2,k) in ascending lexicographic order. Each node evenly splits
// the subspace of its parent along one attribute: level j splits attribute
// j mod m.
package naming

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"armada/internal/kautz"
)

// Space is the value interval [Low, High] of one attribute.
type Space struct {
	Low  float64
	High float64
}

// Contains reports whether v lies in [Low, High].
func (s Space) Contains(v float64) bool { return v >= s.Low && v <= s.High }

// Interval is a subinterval of an attribute's space produced by the
// partition tree. Intervals at the same tree level tile their space;
// adjacent intervals share an endpoint.
type Interval struct {
	Low  float64
	High float64
}

// Overlaps reports whether the closed intervals [i.Low,i.High] and [lo,hi]
// intersect.
func (i Interval) Overlaps(lo, hi float64) bool { return i.Low <= hi && lo <= i.High }

// Errors returned by the naming tree.
var (
	ErrBadSpace  = errors.New("naming: attribute space must have Low < High and a finite width")
	ErrBadK      = errors.New("naming: k must be in [1, 62]")
	ErrArity     = errors.New("naming: wrong number of attribute values")
	ErrNotFinite = errors.New("naming: attribute value must be finite")
)

// Tree is a partition tree P(2,k) over m ≥ 1 attribute spaces. A Tree is
// immutable and safe for concurrent use.
type Tree struct {
	k      int
	spaces []Space
	// starts holds each attribute's halvings in closed form: attribute 0's
	// under each of the root's thirds, then attribute a's at starts[a+2].
	starts []bisection
}

// bisection is the n levels that halve one attribute's start interval
// [lo, hi] in closed form: they put v in leaf ⌊r⌋ of 2ⁿ, r = (v−lo)·scale
// with scale = 2ⁿ/(hi−lo) and top = 2ⁿ, wherever r's fraction lies in
// [margin, 1−margin] (HashInto); shift places the leaf's last bit in the rank.
type bisection struct {
	lo, scale, top, margin float64
	shift                  uint
}

// NewTree builds a partition tree of depth k over the given attribute
// spaces (one Space per attribute, in attribute order A0, A1, ...). A space
// must have Low < High and a representable width: 3·(High−Low) finite, about
// 6e307.
func NewTree(k int, spaces ...Space) (*Tree, error) {
	if k < 1 || k > kautz.MaxRankLen {
		return nil, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	if len(spaces) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrArity)
	}
	for i, s := range spaces {
		// Low < High fails a NaN bound; past a finite 3·(High−Low) the root's
		// 3·(v−Low)/(High−Low) is NaN and every value would hash to one leaf.
		if !(s.Low < s.High) || math.IsInf(3*(s.High-s.Low), 0) {
			return nil, fmt.Errorf("%w: attribute %d: [%v, %v]", ErrBadSpace, i, s.Low, s.High)
		}
	}
	m := len(spaces)
	t := &Tree{k: k, spaces: append([]Space(nil), spaces...), starts: make([]bisection, m+2)}
	for a, s := range spaces {
		// Level j ≥ 1 splits attribute j mod m: attribute a's n levels run by
		// m from its first (m for attribute 0) to its last, shift above k−1.
		first := cmp.Or(a, m)
		n := (k - 1 - first + m) / m
		shift := uint(k - 1 - first - m*(n-1))
		mag := math.Max(math.Abs(s.Low), math.Abs(s.High))
		if a > 0 {
			t.starts[a+2] = newBisection(s.Low, s.High, mag, uint(n), shift)
			continue
		}
		for idx := range 3 {
			lo, hi := rootBounds(s.Low, s.High, idx)
			t.starts[idx] = newBisection(lo, hi, mag, uint(n), shift)
		}
	}
	return t, nil
}

// newBisection returns the closed form of n halvings of [lo, hi] in a space
// whose bounds are at most mag in magnitude, with the margin HashInto
// derives, or off (1) past 52 levels or at a margin of 1/64 or more.
func newBisection(lo, hi, mag float64, n, shift uint) bisection {
	const u, tiny = 0x1p-53, 0x1p-1074 // the unit roundoff; a subnormal halving's rounding
	top, w := math.Ldexp(1, int(n)), hi-lo
	b := bisection{lo: lo, scale: top / w, top: top, margin: 1, shift: shift}
	drift := float64(n)*(u*(w/2+mag)+tiny) + 2*u*(w+mag)
	if margin := 2 * (drift*b.scale + 5*u*top); n <= 52 && margin < 1.0/64 {
		b.margin = margin
	}
	return b
}

// NewSingleTree builds the single-attribute tree used by Single_hash.
func NewSingleTree(k int, low, high float64) (*Tree, error) {
	return NewTree(k, Space{Low: low, High: high})
}

// K returns the depth of the tree, which is also the ObjectID length.
func (t *Tree) K() int { return t.k }

// Attrs returns the number of attributes m.
func (t *Tree) Attrs() int { return len(t.spaces) }

// childIndex returns the position (ascending) of edge label c under a node
// whose incoming edge is prev (0 at the root) — the labels are the symbols
// other than prev — or -1 when no such edge exists (c is not a symbol, or
// repeats prev).
func childIndex(prev, c byte) int {
	if c < '0' || c > '2' || c == prev {
		return -1
	}
	idx := int(c - '0')
	if prev != 0 && c > prev {
		idx--
	}
	return idx
}

// stackAttrs is the arity up to which the per-call scratch of HashRank and
// IntersectsPrefix lives on the stack.
const stackAttrs = 4

// Hash maps an m-attribute value to its ObjectID: the label of the leaf
// whose subspace contains it. This is Single_hash for m = 1 and
// Multiple_hash otherwise. Values are clamped to their attribute spaces;
// non-finite values are rejected. The label is derived from the rank
// HashRank computes (HashInto says how).
func (t *Tree) Hash(values ...float64) (kautz.Str, error) {
	var label [kautz.MaxRankLen]byte // NewTree bounds k by MaxRankLen
	if _, err := t.HashInto(&label, values...); err != nil {
		return "", err
	}
	return kautz.Str(label[:t.k]), nil
}

// HashRank is Hash for a caller that positions by integer: the ObjectID's
// rank (kautz.Rank of the label Hash returns), with no label built.
func (t *Tree) HashRank(values ...float64) (uint64, error) {
	m := len(t.spaces)
	if len(values) != m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrArity, len(values), m)
	}
	var buf [stackAttrs]cell
	cells := buf[:]
	if m > stackAttrs {
		cells = make([]cell, m)
	}
	for i, s := range t.spaces {
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return 0, fmt.Errorf("%w: attribute %d: %v", ErrNotFinite, i, values[i])
		}
		cells[i] = cell{lo: s.Low, hi: s.High, v: math.Min(math.Max(values[i], s.Low), s.High)}
	}
	idx := third(cells[0])
	if r, ok := t.closedForm(cells[:m], idx); ok {
		return r, nil
	}
	return t.walk(cells[:m], idx), nil
}

// HashInto is Hash into the caller's array: it writes the ObjectID to
// label[:k] and returns its rank. On an error label is untouched.
//
// The rank is the root's third, then one bit a level, set where the level
// puts v in the upper half. The walk (walk) is its definition: below the
// root each level halves the interval of the attribute it splits, and the
// upper half holds v when 2·(v−lo) ≥ hi−lo. An attribute's halvings do not
// depend on the others', so n levels over its start interval [lo, hi]
// (attribute 0's third, the others' space) put v in leaf ⌊r⌋ of 2ⁿ,
// r = (v−lo)·2ⁿ/(hi−lo), in exact arithmetic — one subtraction and one
// multiplication by a scale NewTree keeps — and the leaf's bits, spread
// into the attribute's levels, are its share of the rank. The walk rounds,
// so its leaf can differ from ⌊r⌋ only for v near a leaf boundary, and
// NewTree bounds how near per attribute (u = 2⁻⁵³, W = hi − lo,
// M = max(|Low|, |High|)):
//
//   - a level's midpoint lo + (hi−lo)·0.5 rounds the width, the halving (on
//     a subnormal width only, by at most 2⁻¹⁰⁷⁴) and the sum, so it drifts
//     from the exact dyadic point by at most u·(W/2 + M) + 2⁻¹⁰⁷⁴ more than
//     the level above did: n times that after n levels;
//   - the compare rounds v−lo and hi−lo: at most 2u·(W+M) more;
//   - r as computed rounds v−lo, hi−lo, the scale and the product: at most
//     5u·2ⁿ in leaf units.
//
// The margin δ is the sum in leaf units (the first two times 2ⁿ/W),
// doubled for the bound's own rounding. Where r's fraction lies in
// [δ, 1−δ], v is farther than the drift from every midpoint the walk
// compares it with, so the walk decides each level as exact arithmetic does
// and ⌊r⌋ is its leaf. Anywhere else the walk runs: v outside its start
// interval (rootBounds can round a third so that v sits just past it), and
// every value of an attribute with more than 52 levels (a float64 does not
// hold the fraction) or δ ≥ 1/64 (a space a few ulps wide per leaf). At
// k = 32 that is about one uniform value in 10⁴ on [0, 1000] and none in 10⁶
// on [0, 1000]×[0, 100] (TestClosedFormCoverage); TestClosedFormAtMidpoints
// and FuzzHashMatchesReference hold the result to the walk's.
//
// The label follows from the rank in one pass (kautz.PutRank).
func (t *Tree) HashInto(label *[kautz.MaxRankLen]byte, values ...float64) (uint64, error) {
	r, err := t.HashRank(values...)
	if err != nil {
		return 0, err
	}
	kautz.PutRank(label, r, t.k)
	return r, nil
}

// cell is one attribute's value and the interval the walk narrows around it.
type cell struct{ lo, hi, v float64 }

// third is which of the root's thirds holds attribute 0's value, the last
// closed at hi.
func third(c cell) int { return min(max(int(3*(c.v-c.lo)/(c.hi-c.lo)), 0), 2) }

// closedForm is the rank of the clamped values in cells under the root's
// third idx, from each attribute's bisection, or false where some
// attribute's r lies outside its start interval or within its margin of a
// leaf boundary, and only the walk decides.
func (t *Tree) closedForm(cells []cell, idx int) (uint64, bool) {
	m := uint(len(cells))
	rank := uint64(idx) << (t.k - 1)
	for a := range cells {
		b := &t.starts[idx]
		if a > 0 {
			b = &t.starts[a+2]
		}
		r := (cells[a].v - b.lo) * b.scale
		if !(r >= 0 && r < b.top) { // before the conversion: v may sit outside [lo, hi]
			return 0, false
		}
		leaf := uint64(r)
		if f := r - float64(leaf); f < b.margin || f > 1-b.margin {
			return 0, false
		}
		rank |= spread(leaf, m) << b.shift
	}
	return rank, true
}

// spread places the bits of leaf m apart, the lowest where it was: an
// attribute's levels are every m-th of the rank's bits.
func spread(leaf uint64, m uint) uint64 {
	switch m {
	case 1:
		return leaf
	case 2: // n ≤ 31: a Morton spread
		leaf = (leaf | leaf<<16) & 0x0000ffff0000ffff
		leaf = (leaf | leaf<<8) & 0x00ff00ff00ff00ff
		leaf = (leaf | leaf<<4) & 0x0f0f0f0f0f0f0f0f
		leaf = (leaf | leaf<<2) & 0x3333333333333333
		return (leaf | leaf<<1) & 0x5555555555555555
	}
	var out uint64
	for p := uint(0); leaf != 0; p, leaf = p+m, leaf>>1 {
		out |= (leaf & 1) << p
	}
	return out
}

// walk is the rank of the clamped values in cells under the root's third
// idx, one level at a time: the definition closedForm agrees with, and what
// runs where it cannot say.
//
// Only the root's three-way split divides. Below it a node halves one
// attribute's interval [lo, hi] of width d, and the upper half holds v
// exactly when 2·(v−lo) ≥ d: doubling is exact, and the quotient 2·(v−lo)/d
// cannot round up to 1 from below (under 1 it is at most 1 − 2⁻⁵³, which is
// representable), so the comparison picks the piece the quotient's integer
// part would; d·0.5 is d/2 bit for bit. Labels and intervals are those of
// the dividing walk the tests keep as reference (FuzzHashMatchesReference).
func (t *Tree) walk(cells []cell, idx int) uint64 {
	m := len(cells)
	c := &cells[0]
	c.lo, c.hi = rootBounds(c.lo, c.hi, idx)
	rank := uint64(idx)
	for j, a := 1, 0; j < t.k; j++ {
		if a++; a == m {
			a = 0
		}
		c := &cells[a]
		d := c.hi - c.lo
		mid := c.lo + float64(d*0.5) // the conversion keeps d·0.5 rounded where the sum could fuse
		// The level's bit with no jump, since a branch on it would mispredict
		// about half the levels, and the new bounds selected by mask: the
		// upper half takes mid as lo, the lower as hi. A collapsed interval
		// (d = 0) keeps to its lower half.
		upper := bit(d > 0) & bit(2*(c.v-c.lo) >= d)
		keep, lo, hi := upper-1, math.Float64bits(c.lo), math.Float64bits(c.hi)
		c.lo = math.Float64frombits(lo&keep | math.Float64bits(mid)&^keep)
		c.hi = math.Float64frombits(hi&^keep | math.Float64bits(mid)&keep)
		rank = rank<<1 | upper
	}
	return rank
}

// bit is b as 0 or 1; the compiler turns it into a flag read, not a jump.
func bit(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// rootBounds returns the bounds of third idx of [lo, hi].
func rootBounds(lo, hi float64, idx int) (float64, float64) {
	w := (hi - lo) / 3
	newLo := lo + w*float64(idx)
	if idx == 2 {
		return newLo, hi
	}
	return newLo, newLo + w
}

// Subspace returns, for each attribute, the interval represented by the
// partition tree node labelled prefix. The empty prefix denotes the root
// (the full space). Any valid Kautz string of length ≤ k is a valid node
// label.
func (t *Tree) Subspace(prefix kautz.Str) ([]Interval, error) {
	iv := make([]Interval, len(t.spaces))
	if err := t.NarrowFrom(prefix, 0, iv); err != nil {
		return nil, err
	}
	return iv, nil
}

// NarrowFrom fills iv (one interval per attribute) with the subspace of the
// node labelled prefix, narrowing one attribute's interval per symbol — level
// j splits attribute j mod m — and resuming part-way down the tree when from
// is positive: iv then holds the subspace of the node labelled prefix[:from],
// and only prefix[from:] is walked. A resumed walk takes the whole walk's
// float steps in the same order, so its result is bit-identical to
// Subspace(prefix) (FuzzNarrowFrom): a descent that carries each message's
// subspace pays per hop only for the symbols the hop adds. prefix[:from] is
// the caller's to vouch for; the walk itself rejects anything after it that
// is not a node label, a symbol outside the alphabet or repeating its
// predecessor having no edge to follow.
func (t *Tree) NarrowFrom(prefix kautz.Str, from int, iv []Interval) error {
	if len(prefix) > t.k || from < 0 || from > len(prefix) {
		return fmt.Errorf("%w: prefix %q longer than k=%d, or resumed outside it at %d", ErrBadK, prefix, t.k, from)
	}
	var prev byte
	a := 0 // the attribute the last level walked split: the root's is 0
	if from > 0 {
		prev, a = prefix[from-1], int(uint32(from-1)%uint32(len(iv))) // a 32-bit divide is the cheaper
	} else {
		for i, s := range t.spaces {
			iv[i] = Interval{Low: s.Low, High: s.High}
		}
	}
	for j := from; j < len(prefix); j++ {
		idx := childIndex(prev, prefix[j])
		if idx < 0 {
			return fmt.Errorf("naming: %q is not a partition tree path", prefix)
		}
		if j == 0 {
			iv[0].Low, iv[0].High = rootBounds(iv[0].Low, iv[0].High, idx)
		} else {
			if a++; a == len(iv) {
				a = 0
			}
			c := &iv[a]
			if mid := c.Low + float64((c.High-c.Low)*0.5); idx == 0 {
				c.High = mid
			} else {
				c.Low = mid
			}
		}
		prev = prefix[j]
	}
	return nil
}

// Box is an axis-aligned multi-attribute range query
// ⟨[Lo[0],Hi[0]], ..., [Lo[m-1],Hi[m-1]]⟩.
type Box struct {
	Lo []float64
	Hi []float64
}

// NewBox validates the query bounds against the tree's arity and spaces
// (bounds are clamped to each attribute space).
func (t *Tree) NewBox(lo, hi []float64) (Box, error) {
	if len(lo) != len(t.spaces) || len(hi) != len(t.spaces) {
		return Box{}, fmt.Errorf("%w: got %d/%d bounds, want %d", ErrArity, len(lo), len(hi), len(t.spaces))
	}
	m := len(lo)
	buf := make([]float64, 2*m) // one backing array for both bounds
	b := Box{Lo: buf[:m:m], Hi: buf[m:]}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
			return Box{}, fmt.Errorf("%w: attribute %d", ErrNotFinite, i)
		}
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("naming: attribute %d: query low %v above high %v", i, lo[i], hi[i])
		}
		b.Lo[i] = math.Min(math.Max(lo[i], t.spaces[i].Low), t.spaces[i].High)
		b.Hi[i] = math.Min(math.Max(hi[i], t.spaces[i].Low), t.spaces[i].High)
	}
	return b, nil
}

// Contains reports whether the m-attribute point v lies in the box.
func (b Box) Contains(v []float64) bool {
	for i := range b.Lo {
		if v[i] < b.Lo[i] || v[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// IntersectsPrefix reports whether the subspace of the partition tree node
// labelled prefix intersects the box. This is MIRA's pruning predicate: a
// branch of the forward routing tree is descended only while some leaf under
// it can hold matching objects.
//
// The node's subspace is narrowed in a stack-resident array (for up to
// stackAttrs attributes), so the predicate allocates nothing.
func (t *Tree) IntersectsPrefix(prefix kautz.Str, b Box) (bool, error) {
	var buf [stackAttrs]Interval
	iv := buf[:]
	if m := len(t.spaces); m <= stackAttrs {
		iv = iv[:m]
	} else {
		iv = make([]Interval, m)
	}
	if err := t.NarrowFrom(prefix, 0, iv); err != nil {
		return false, err
	}
	return b.Meets(iv), nil
}

// Meets reports whether a subspace — one interval per attribute, as Subspace
// and NarrowFrom fill it — intersects the box.
func (b Box) Meets(iv []Interval) bool {
	for i := range iv {
		if !iv[i].Overlaps(b.Lo[i], b.Hi[i]) {
			return false
		}
	}
	return true
}

// QueryRegion maps a range query to the Kautz region ⟨LowT, HighT⟩ where
// LowT = Hash(box.Lo) and HighT = Hash(box.Hi). For a single attribute the
// region is exactly the query's image (interval preservation); for multiple
// attributes it is a superset of the matching leaves, which MIRA narrows
// with IntersectsPrefix.
func (t *Tree) QueryRegion(b Box) (kautz.Region, error) {
	lowT, err := t.Hash(b.Lo...)
	if err != nil {
		return kautz.Region{}, err
	}
	highT, err := t.Hash(b.Hi...)
	if err != nil {
		return kautz.Region{}, err
	}
	return kautz.NewRegion(lowT, highT)
}
