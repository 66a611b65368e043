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
	"errors"
	"fmt"
	"math"
	"strings"

	"armada/internal/kautz"
)

// Space is the value interval [Low, High] of one attribute.
type Space struct {
	Low  float64
	High float64
}

// Width returns the length of the interval.
func (s Space) Width() float64 { return s.High - s.Low }

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
	cp := make([]Space, len(spaces))
	copy(cp, spaces)
	return &Tree{k: k, spaces: cp}, nil
}

// NewSingleTree builds the single-attribute tree used by Single_hash.
func NewSingleTree(k int, low, high float64) (*Tree, error) {
	return NewTree(k, Space{Low: low, High: high})
}

// K returns the depth of the tree, which is also the ObjectID length.
func (t *Tree) K() int { return t.k }

// Attrs returns the number of attributes m.
func (t *Tree) Attrs() int { return len(t.spaces) }

// Spaces returns a copy of the attribute spaces.
func (t *Tree) Spaces() []Space {
	cp := make([]Space, len(t.spaces))
	copy(cp, t.spaces)
	return cp
}

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

// edgeLabels[2·(p−'0')+i] is edge label i (ascending) under a node whose
// incoming edge is p: the two symbols other than p.
const edgeLabels = "120201"

// stackAttrs is the arity up to which the per-call scratch of Hash and
// IntersectsPrefix lives on the stack.
const stackAttrs = 4

// Hash maps an m-attribute value to its ObjectID: the label of the leaf
// whose subspace contains it. This is Single_hash for m = 1 and
// Multiple_hash otherwise. Values are clamped to their attribute spaces;
// non-finite values are rejected.
//
// Only the root's three-way split divides. Below it a node halves one
// attribute's interval [lo, hi] of width d, and the upper half holds v
// exactly when 2·(v−lo) ≥ d: doubling is exact, and the quotient 2·(v−lo)/d
// cannot round up to 1 from below (under 1 it is at most 1 − 2⁻⁵³, which is
// representable), so the comparison picks the piece the quotient's integer
// part would; d·0.5 is d/2 bit for bit. Labels and intervals are those of
// the dividing walk the tests keep as reference (FuzzHashMatchesReference).
func (t *Tree) Hash(values ...float64) (kautz.Str, error) {
	var label [kautz.MaxRankLen]byte // NewTree bounds k by MaxRankLen
	if _, err := t.hash(&label, values); err != nil {
		return "", err
	}
	return kautz.Str(label[:t.k]), nil
}

// HashRank is Hash for a caller that positions by integer: the ObjectID's
// rank (kautz.Rank of the label Hash returns), with no string built.
func (t *Tree) HashRank(values ...float64) (uint64, error) {
	var label [kautz.MaxRankLen]byte
	return t.hash(&label, values)
}

// WriteHash is Hash into a record under construction: it writes the ObjectID
// to b and returns its rank; on an error b is untouched.
func (t *Tree) WriteHash(b *strings.Builder, values ...float64) (uint64, error) {
	var label [kautz.MaxRankLen]byte
	rank, err := t.hash(&label, values)
	if err == nil {
		b.Write(label[:t.k])
	}
	return rank, err
}

// hash is the walk behind Hash: it fills label[:k] and returns the label's
// rank, which the walk has in hand — the root's third, then one bit a level,
// set in the upper half.
func (t *Tree) hash(label *[kautz.MaxRankLen]byte, values []float64) (uint64, error) {
	m := len(t.spaces)
	if len(values) != m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrArity, len(values), m)
	}
	type cell struct{ lo, hi, v float64 }
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
	c := &cells[0]
	idx := min(max(int(3*(c.v-c.lo)/(c.hi-c.lo)), 0), 2) // which third holds v, the last closed at hi
	c.lo, c.hi = rootBounds(c.lo, c.hi, idx)
	prev, rank := byte('0'+idx), uint64(idx)
	label[0] = prev
	for j, a := 1, 0; j < t.k; j++ {
		if a++; a == m {
			a = 0
		}
		c := &cells[a]
		d := c.hi - c.lo
		mid := c.lo + float64(d*0.5) // the conversion keeps d·0.5 rounded where the sum could fuse
		var upper byte
		if d > 0 && 2*(c.v-c.lo) >= d { // a collapsed interval keeps to its lower half
			c.lo, upper = mid, 1
		} else {
			c.hi = mid
		}
		prev, rank = edgeLabels[2*(prev-'0')+upper], rank<<1|uint64(upper)
		label[j] = prev
	}
	return rank, nil
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
	if err := t.narrow(prefix, iv); err != nil {
		return nil, err
	}
	return iv, nil
}

// narrow fills iv (one interval per attribute) with the subspace of the
// node labelled prefix, narrowing one attribute's interval per symbol. The
// walk itself rejects anything that is not a node label: a symbol outside
// the alphabet or repeating its predecessor has no edge to follow.
func (t *Tree) narrow(prefix kautz.Str, iv []Interval) error {
	if len(prefix) > t.k {
		return fmt.Errorf("%w: prefix %q longer than k=%d", ErrBadK, prefix, t.k)
	}
	for i, s := range t.spaces {
		iv[i] = Interval{Low: s.Low, High: s.High}
	}
	var prev byte
	for j, a := 0, 0; j < len(prefix); j++ {
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
	if err := t.narrow(prefix, iv); err != nil {
		return false, err
	}
	for i := range iv {
		if !iv[i].Overlaps(b.Lo[i], b.Hi[i]) {
			return false, nil
		}
	}
	return true, nil
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

// LeafCenter returns the center point of the leaf labelled by the full
// length-k Kautz string s: a representative value that hashes back to s.
func (t *Tree) LeafCenter(s kautz.Str) ([]float64, error) {
	if len(s) != t.k {
		return nil, fmt.Errorf("naming: leaf label %q has length %d, want %d", s, len(s), t.k)
	}
	iv, err := t.Subspace(s)
	if err != nil {
		return nil, err
	}
	center := make([]float64, len(iv))
	for i := range iv {
		center[i] = iv[i].Low + (iv[i].High-iv[i].Low)/2
	}
	return center, nil
}
