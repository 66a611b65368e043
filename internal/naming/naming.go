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
// KautzSpace(2,k) in ascending lexicographic order, and a leaf's rank
// (kautz.Rank) is the root's third, then one bit a level. Each node evenly
// splits the subspace of its parent along one attribute: level j ≥ 1 splits
// attribute j mod m, and the root splits attribute 0 in three.
//
// The partition has one definition, in integers. An attribute's splits do
// not depend on the others', so its levels cut its space [lo, lo+W] into L
// equal leaves — L = 3·2ⁿ for attribute 0, whose top digit is the root's
// third, and 2ⁿ for the others, n the levels below the root that split it —
// and a value v lies in leaf
//
//	leaf(v) = ⌊(v−lo)·L/W⌋, clamped to [0, L−1].
//
// The leaf's bits, spread into the attribute's levels, are its share of the
// rank (HashRank). Those rank bits are the attribute's mask M_a: for
// attribute 0 the root's third (bits k−1..k) and every level j ≡ 0 (mod m),
// for attribute a every level j ≡ a (mod m). Spreading keeps bit order, so a
// rank masked by M_a orders values exactly as attribute a's leaf does.
//
// The floor is monotone in v, as every rounded step of it is, so a value in
// [a, b] has its leaf between leaf(a) and leaf(b) on every attribute. A node
// is a block of ranks; masked by M_a, the block's two ends bound the leaves
// of attribute a under it. The node can hold a value of a box only if, for
// every a, that range meets the box's, whose ends are its corners' ranks
// masked alike (MayHold). No node that holds a value of the box fails the
// test, with no margin: the hash and the pruning read the same integers.
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
	attrs  []attr // one per attribute, in attribute order
}

// attr is one attribute's share of the partition: leaf(v) is
// ⌊(v−Low)·pre·scale⌋ below top (L); the leaf's low n bits are spread to
// every m-th rank bit from shift, and its higher bits (attribute 0's third)
// are the rank's top digit. mask is the rank bits the attribute owns, M_a.
type attr struct {
	pre, scale float64 // pre·scale = L/W; pre, a power of two, is 1 unless L/W overflows
	top        uint64
	n, shift   uint
	mask       uint64
}

// NewTree builds a partition tree of depth k over the given attribute
// spaces (one Space per attribute, in attribute order A0, A1, ...). A space
// must have Low < High and a finite width High−Low: the floor ⌊(v−lo)·L/W⌋
// needs nothing more.
func NewTree(k int, spaces ...Space) (*Tree, error) {
	if k < 1 || k > kautz.MaxRankLen {
		return nil, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	if len(spaces) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrArity)
	}
	for i, s := range spaces {
		if !(s.Low < s.High) || math.IsInf(s.High-s.Low, 0) { // Low < High fails a NaN bound
			return nil, fmt.Errorf("%w: attribute %d: [%v, %v]", ErrBadSpace, i, s.Low, s.High)
		}
	}
	m := len(spaces)
	t := &Tree{k: k, spaces: append([]Space(nil), spaces...), attrs: make([]attr, m)}
	for i, s := range spaces {
		// Level j ≥ 1 splits attribute j mod m: attribute i's n levels run by
		// m from its first (m for attribute 0) to its last, shift above k−1.
		first := cmp.Or(i, m)
		n := (k - 1 - first + m) / m
		a := attr{n: uint(n), shift: uint(k - 1 - first - m*(n-1)), top: 1 << n, pre: 1}
		a.mask = spread(a.top-1, uint(m)) << a.shift
		if i == 0 {
			a.top *= 3
			a.mask |= 3 << (k - 1)
		}
		// A width so small that L/W overflows (a subnormal one) is scaled
		// up first: 2¹⁰⁰⁰ times a width under 2⁻⁹⁶⁰ is exact and finite.
		if a.scale = float64(a.top) / (s.High - s.Low); math.IsInf(a.scale, 0) {
			a.pre, a.scale = 0x1p1000, float64(a.top)/((s.High-s.Low)*0x1p1000)
		}
		t.attrs[i] = a
	}
	return t, nil
}

// NewSingleTree builds the single-attribute tree used by Single_hash.
func NewSingleTree(k int, low, high float64) (*Tree, error) {
	return NewTree(k, Space{Low: low, High: high})
}

// K returns the depth of the tree, which is also the ObjectID length.
func (t *Tree) K() int { return t.k }

// Attrs returns the number of attributes m.
func (t *Tree) Attrs() int { return len(t.spaces) }

// Hash maps an m-attribute value to its ObjectID: the label of the leaf
// whose subspace contains it. This is Single_hash for m = 1 and
// Multiple_hash otherwise. Values are clamped to their attribute spaces;
// non-finite values are rejected. The label is derived from the rank
// HashRank computes.
func (t *Tree) Hash(values ...float64) (kautz.Str, error) {
	var label [kautz.MaxRankLen]byte // NewTree bounds k by MaxRankLen
	if _, err := t.HashInto(&label, values...); err != nil {
		return "", err
	}
	return kautz.Str(label[:t.k]), nil
}

// HashRank is Hash for a caller that positions by integer: the ObjectID's
// rank (kautz.Rank of the label Hash returns), with no label built. Each
// attribute's value, clamped to its space [lo, lo+W], lies in leaf
// ⌊(v−lo)·L/W⌋ (at most L−1) of its L; the leaf's bits spread into the
// attribute's levels, and attribute 0's third above them, make the rank.
// Every step rounds monotonically, so the rank masked by any attribute's bits
// never decreases as that attribute's value grows: this is what MayHold's
// pruning rests on.
func (t *Tree) HashRank(values ...float64) (uint64, error) {
	return t.hashRank(values, true)
}

// hashRank is HashRank; a value that need not be finite may be infinite, and
// clamps to its space's end like any other (Corners).
func (t *Tree) hashRank(values []float64, finite bool) (uint64, error) {
	if len(values) != len(t.attrs) {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrArity, len(values), len(t.attrs))
	}
	m := uint(len(t.attrs))
	var rank uint64
	for i := range t.attrs {
		a, s, v := &t.attrs[i], t.spaces[i], values[i]
		if math.IsNaN(v) || finite && math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: attribute %d: %v", ErrNotFinite, i, v)
		}
		v = math.Min(math.Max(v, s.Low), s.High)
		leaf := min(uint64((v-s.Low)*a.pre*a.scale), a.top-1)
		rank |= spread(leaf&(1<<a.n-1), m)<<a.shift | leaf>>a.n<<(t.k-1)
	}
	return rank, nil
}

// HashInto is Hash into the caller's array: it writes the ObjectID to
// label[:k] and returns its rank (HashRank), from which the label follows in
// one pass (kautz.PutRank). On an error label is untouched.
func (t *Tree) HashInto(label *[kautz.MaxRankLen]byte, values ...float64) (uint64, error) {
	r, err := t.HashRank(values...)
	if err != nil {
		return 0, err
	}
	kautz.PutRank(label, r, t.k)
	return r, nil
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

// MayHold reports whether the node whose ObjectID ranks are block can hold a
// value of the box whose corners' ranks (HashRank of its Lo and Hi) are
// corners: whether, on every attribute, the leaves under the node meet the
// box's, each side masked by the attribute's rank bits. It is MIRA's pruning
// predicate, and exact in the one direction a pruning must be: every value
// in the box hashes, on every attribute, between its corners (see the
// package doc), so a node that holds one passes.
func (t *Tree) MayHold(block, corners kautz.Span) bool {
	for i := range t.attrs {
		mk := t.attrs[i].mask
		if block.Lo&mk > corners.Hi&mk || corners.Lo&mk > block.Hi&mk {
			return false
		}
	}
	return true
}

// Class is where a node — one ObjectID, or a peer's block of ranks — lies
// against a box: Outside, when on some attribute none of its leaves is the
// box's; Inside, when on every attribute all of them lie strictly between the
// corners' leaves; else Edge, reaching a corner's leaf, which holds values on
// both sides of the box's bound.
type Class uint8

const (
	Outside Class = iota
	Edge
	Inside
)

// Classify places the node whose ObjectID ranks are block against the box
// whose corners' ranks are corners, on every attribute comparing the ends of
// both, masked by the attribute's rank bits. Outside and Inside are exact,
// because the hash is monotone on every attribute (see the package doc), so
// only an Edge object needs its values tested. At m = 1 the masked ranks are
// the ranks: an ObjectID strictly between the corners is inside.
func (t *Tree) Classify(block, corners kautz.Span) Class {
	c := Inside
	for i := range t.attrs {
		mk := t.attrs[i].mask
		if block.Lo&mk > corners.Hi&mk || corners.Lo&mk > block.Hi&mk {
			return Outside
		}
		if block.Lo&mk <= corners.Lo&mk || corners.Hi&mk <= block.Hi&mk {
			c = Edge
		}
	}
	return c
}

// Box is an axis-aligned multi-attribute range query
// ⟨[Lo[0],Hi[0]], ..., [Lo[m-1],Hi[m-1]]⟩. Its bounds are the caller's, never
// clamped: the hash clamps a value published outside its space for its rank
// alone, so an object lies in a box by its own values. Corners clamp.
type Box struct {
	Lo []float64
	Hi []float64
}

// NewBox validates the query bounds (BoxOf) and copies them into a box of
// their own.
func (t *Tree) NewBox(lo, hi []float64) (Box, error) {
	buf := append(append(make([]float64, 0, len(lo)+len(hi)), lo...), hi...)
	return t.BoxOf(buf[:len(lo):len(lo)], buf[len(lo):])
}

// BoxOf validates the query bounds — one a side per attribute, none NaN, no
// low above its high — and returns the box over the slices given.
func (t *Tree) BoxOf(lo, hi []float64) (Box, error) {
	if len(lo) != len(t.spaces) || len(hi) != len(t.spaces) {
		return Box{}, fmt.Errorf("%w: got %d/%d bounds, want %d", ErrArity, len(lo), len(hi), len(t.spaces))
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
			return Box{}, fmt.Errorf("%w: attribute %d", ErrNotFinite, i)
		}
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("naming: attribute %d: query low %v above high %v", i, lo[i], hi[i])
		}
	}
	return Box{Lo: lo, Hi: hi}, nil
}

// Corners returns the ranks of a valid box's corners, HashRank of Lo and of
// Hi, each bound — an infinite one too — clamped to its space for the rank.
func (t *Tree) Corners(b Box) kautz.Span {
	lo, _ := t.hashRank(b.Lo, false)
	hi, _ := t.hashRank(b.Hi, false)
	return kautz.Span{Lo: lo, Hi: hi}
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

// IntersectsPrefix is MayHold for the partition tree node labelled prefix
// (any Kautz string of length ≤ k; the empty one is the root) and a valid box
// (NewBox): the string-keyed entrance to the pruning predicate, which
// allocates nothing.
func (t *Tree) IntersectsPrefix(prefix kautz.Str, b Box) (bool, error) {
	if len(prefix) > t.k || !kautz.Valid(prefix) {
		return false, fmt.Errorf("naming: %q is not a partition tree node at k=%d", prefix, t.k)
	}
	lo, hi := kautz.PrefixRanks(prefix, t.k)
	return t.MayHold(kautz.Span{Lo: lo, Hi: hi}, t.Corners(b)), nil
}

// QueryRegion maps a range query to the Kautz region ⟨LowT, HighT⟩ where
// LowT = Hash(box.Lo) and HighT = Hash(box.Hi). For a single attribute the
// region is exactly the query's image (interval preservation); for multiple
// attributes it is a superset of the matching leaves, which MIRA narrows
// with MayHold.
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
