package naming

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"armada/internal/kautz"
)

// The partition-tree walk as first written: every level divides — which of f
// equal pieces holds v is the integer part of f·(v−lo)/(hi−lo), a piece's
// width is (hi−lo)/f. HashRank decides every level at once by the floor
// ⌊(v−lo)·L/W⌋; the two agree in exact arithmetic, so this is the reference
// the floor must agree with wherever neither's rounding can decide
// (checkAgainstReference).

// fanout returns the number of children of a node at level j (edges from the
// root are level 0).
func fanout(j int) int {
	if j == 0 {
		return 3
	}
	return 2
}

// childSymbol returns edge label idx (ascending) under a node whose incoming
// edge is prev (0 at the root): the labels are the symbols other than prev.
func childSymbol(prev byte, idx int) byte {
	c := byte('0' + idx)
	if prev != 0 && c >= prev {
		c++
	}
	return c
}

// pieceIndex returns which of f equal pieces of [lo,hi] contains v, with the
// final piece closed at hi.
func pieceIndex(v, lo, hi float64, f int) int {
	if hi <= lo {
		return 0
	}
	idx := int(float64(f) * (v - lo) / (hi - lo))
	if idx < 0 {
		idx = 0
	}
	if idx > f-1 {
		idx = f - 1
	}
	return idx
}

// pieceBounds returns the bounds of piece idx of [lo,hi] split into f equal
// pieces.
func pieceBounds(lo, hi float64, f, idx int) (float64, float64) {
	w := (hi - lo) / float64(f)
	newLo := lo + w*float64(idx)
	newHi := newLo + w
	if idx == f-1 {
		newHi = hi
	}
	return newLo, newHi
}

// hashRef is Hash over the dividing walk.
func hashRef(t *Tree, values ...float64) (kautz.Str, error) {
	m := len(t.spaces)
	if len(values) != m {
		return "", fmt.Errorf("%w: got %d, want %d", ErrArity, len(values), m)
	}
	type cell struct{ lo, hi, v float64 }
	cells := make([]cell, m)
	for i, s := range t.spaces {
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return "", fmt.Errorf("%w: attribute %d: %v", ErrNotFinite, i, values[i])
		}
		cells[i] = cell{lo: s.Low, hi: s.High, v: math.Min(math.Max(values[i], s.Low), s.High)}
	}
	label := make([]byte, t.k)
	var prev byte
	for j := 0; j < t.k; j++ {
		c := &cells[j%m]
		f := fanout(j)
		idx := pieceIndex(c.v, c.lo, c.hi, f)
		c.lo, c.hi = pieceBounds(c.lo, c.hi, f, idx)
		prev = childSymbol(prev, idx)
		label[j] = prev
	}
	return kautz.Str(label), nil
}

// leafIndex de-interleaves attribute a's leaf from the rank of a label of
// length k over m attributes, level by level: attribute 0's starts from the
// root's third, and level j ≥ 1 appends its bit to attribute j mod m's.
func leafIndex(k, m int, rank uint64, a int) uint64 {
	var idx uint64
	if a == 0 {
		idx = rank >> (k - 1)
	}
	for j := 1; j < k; j++ {
		if j%m == a {
			idx = idx<<1 | rank>>(k-1-j)&1
		}
	}
	return idx
}

// delta is how far from an integer attribute a's r — (v−lo)·L/W as HashRank
// computes it, in leaves — must lie for the floor and the dividing walk to
// name the same leaf. The walk compares v with points it computes in floats,
// level by level; in exact arithmetic n halvings of the attribute's start
// interval put v in leaf ⌊r⌋. Per attribute (u = 2⁻⁵³, W = hi − lo,
// M = max(|Low|, |High|), n its levels below the root):
//
//   - a level's midpoint lo + (hi−lo)/2 rounds the width, the halving (on a
//     subnormal width only, by at most 2⁻¹⁰⁷⁴) and the sum, so it drifts
//     from the exact dyadic point by at most u·(W/2 + M) + 2⁻¹⁰⁷⁴ more than
//     the level above did: n times that after n levels;
//   - the root's thirds lo + (W/3)·idx round by at most u·(W+M) more, and
//     each compare rounds v−lo and hi−lo: at most 2u·(W+M) more;
//   - the floor's r rounds v−lo, L/W and the product, and the root's
//     quotient 3·(v−lo)/W rounds alike: at most 8u·L in leaf units together.
//
// δ is the sum in leaf units (the drift over W, times L), doubled for the
// bound's own rounding. Where r's fraction lies in (δ, 1−δ), v is farther
// than the drift from every point the walk compares it with, so the walk
// decides each level as exact arithmetic does, and its leaf is ⌊r⌋. A
// float64 r at 2⁵³ or more has no fraction, so past 52 levels nothing is
// decided.
func delta(tree *Tree, a int) float64 {
	const u, tiny = 0x1p-53, 0x1p-1074
	s, at := tree.spaces[a], tree.attrs[a]
	w, mag, top := s.High-s.Low, math.Max(math.Abs(s.Low), math.Abs(s.High)), float64(at.top)
	drift := float64(at.n)*(u*(w/2+mag)+tiny) + 3*u*(w+mag)
	return 2 * (drift/w*top + 8*u*top) // top/w may overflow where drift/w does not
}

// checkAgainstReference holds HashRank at values to the dividing walk,
// attribute by attribute: the same leaf wherever the attribute's r lies
// farther than delta from an integer, the same or a neighbouring one
// elsewhere while δ < 1/2, and the same refusal of a non-finite value. It
// returns how many attributes it held to the same leaf.
func checkAgainstReference(t testing.TB, tree *Tree, values []float64) (exact int) {
	t.Helper()
	got, err := tree.HashRank(values...)
	want, refErr := hashRef(tree, values...)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("k=%d spaces %v: HashRank(%v) error %v, the dividing walk's %v", tree.k, tree.spaces, values, err, refErr)
	}
	if err != nil {
		return 0
	}
	m := len(tree.spaces)
	for a, s := range tree.spaces {
		at := &tree.attrs[a]
		v := math.Min(math.Max(values[a], s.Low), s.High)
		r := (v - s.Low) * at.pre * at.scale
		g, w := leafIndex(tree.k, m, got, a), leafIndex(tree.k, m, kautz.Rank(want), a)
		d, frac := delta(tree, a), r-math.Floor(r)
		switch {
		case frac > d && frac < 1-d:
			if g != w {
				t.Fatalf("k=%d spaces %v: HashRank(%v) puts attribute %d in leaf %d (r = %v), the dividing walk in %d",
					tree.k, tree.spaces, values, a, g, r, w)
			}
			exact++
		case d < 0.5 && (g+1 < w || w+1 < g):
			t.Fatalf("k=%d spaces %v: HashRank(%v) puts attribute %d in leaf %d (r = %v, δ = %v), the dividing walk in %d",
				tree.k, tree.spaces, values, a, g, r, d, w)
		}
	}
	return exact
}

// refSpaces are the attribute spaces FuzzHashMatchesReference builds its
// trees over: the bench's, a near-degenerate one (a few ulps wide, so
// intervals collapse within the first levels), a subnormal one and the widest
// NewTree admits.
var refSpaces = []Space{
	{0, 1000}, {-50, 100}, {0, 10}, {1, math.Nextafter(math.Nextafter(1, 2), 2)},
	{-1e-310, 2e-310}, {-2.9e307, 2.9e307}, {-3.7, 91.3},
}

// FuzzHashMatchesReference holds HashRank to the dividing walk
// (checkAgainstReference), Hash and HashInto to HashRank, and IntersectsPrefix
// to the values the hash maps under each node (Subspace) — for one to five
// attributes, every depth, values inside, on the edge of and outside their
// spaces (the committed corpus adds the collapsing, subnormal and widest
// spaces, labels that are no node's, and non-finite values). It is the check
// to run for any edit to this package's arithmetic.
func FuzzHashMatchesReference(f *testing.F) {
	third, dyadic := 1000.0/3, 1000.0/3+1000.0/3/4
	for _, v := range []float64{
		third, math.Nextafter(third, 0), math.Nextafter(third, 1000),
		2 * third, math.Nextafter(2*third, 0), math.Nextafter(2*third, 1000),
		dyadic, math.Nextafter(dyadic, 0), math.Nextafter(dyadic, 1000),
		500, 0, 1000, -7, 1e9, // edges, and outside the space: clamped
		math.Floor(417.123456789/1e-6) * 1e-6, // the bench's value grid
	} {
		for _, m := range []uint8{0, 1, 2, 3} {
			f.Add(m, uint8(31), uint8(0), v, v/10-50, v/100, 1+v*1e-19, v*1e-313, "0121", v-5, v+5)
		}
	}
	f.Fuzz(func(t *testing.T, mSel, kRaw, first uint8, v0, v1, v2, v3, v4 float64, prefix string, boxLo, boxHi float64) {
		m := []int{1, 2, 3, 5}[mSel%4]
		k := 1 + int(kRaw)%kautz.MaxRankLen
		spaces := make([]Space, m)
		for i := range spaces {
			spaces[i] = refSpaces[(int(first)+i)%len(refSpaces)]
		}
		tree, err := NewTree(k, spaces...)
		if err != nil {
			t.Fatal(err)
		}
		values := []float64{v0, v1, v2, v3, v4}[:m]
		checkAgainstReference(t, tree, values)
		// The three doors: the label, the rank alone, and the label written
		// into the caller's array with its rank — or, refused, nothing written.
		got, gotErr := tree.Hash(values...)
		rank, rankErr := tree.HashRank(values...)
		var label [kautz.MaxRankLen]byte
		copy(label[:], strings.Repeat("x", len(label)))
		wrote, writeErr := tree.HashInto(&label, values...)
		written, wantWritten := string(label[:k]), string(got)
		if gotErr != nil {
			wantWritten = strings.Repeat("x", k)
		}
		if (rankErr == nil) != (gotErr == nil) || (writeErr == nil) != (gotErr == nil) || written != wantWritten {
			t.Fatalf("m=%d k=%d: Hash(%v) = %q, %v but HashRank: %v, HashInto: %q, %v", m, k, values, got, gotErr, rankErr, written, writeErr)
		}
		if gotErr == nil && (rank != kautz.Rank(got) || wrote != rank) {
			t.Fatalf("m=%d k=%d: Hash(%v) = %q of rank %d; HashRank says %d, HashInto %d", m, k, values, got, kautz.Rank(got), rank, wrote)
		}
		lo, hi := make([]float64, m), make([]float64, m)
		for i := range lo {
			lo[i], hi[i] = boxLo, boxHi
		}
		box, boxErr := tree.NewBox(lo, hi)
		if boxErr != nil {
			return // NaN or inverted bounds: not a query
		}
		// The fuzzer's prefix — mostly not a node label — then every node on
		// the way down to the value's own leaf.
		for _, p := range append([]kautz.Str{kautz.Str(prefix)}, prefixes(got)...) {
			iv, ivErr := tree.Subspace(p)
			meets, err := tree.IntersectsPrefix(p, box)
			if (err == nil) != (ivErr == nil) {
				t.Fatalf("m=%d k=%d: IntersectsPrefix(%q): %v, Subspace: %v", m, k, p, err, ivErr)
			}
			if err != nil {
				continue
			}
			want := true
			for i, s := range spaces {
				// A bound beyond the space meets a node as the space's end does:
				// a value published out there hashes to the end's leaf.
				want = want && iv[i].Overlaps(min(max(box.Lo[i], s.Low), s.High), min(max(box.Hi[i], s.Low), s.High))
			}
			if meets != want {
				t.Fatalf("m=%d k=%d spaces %v: IntersectsPrefix(%q, %v) = %v; the node's values %v say %v", m, k, spaces, p, box, meets, iv, want)
			}
		}
	})
}

// prefixes lists every prefix of s, the empty one first.
func prefixes(s kautz.Str) []kautz.Str {
	out := make([]kautz.Str, 0, len(s)+1)
	for n := 0; n <= len(s); n++ {
		out = append(out, s[:n])
	}
	return out
}

// TestHashMatchesReference sweeps what the fuzz seeds only sample: random
// values, the bench's millionth grid, and the bounds of random nodes of the
// dividing walk — the thirds and dyadic points where a piece ends — one ulp
// either side, at shallow, default and full depth.
func TestHashMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{8, 32, kautz.MaxRankLen} {
		for _, m := range []int{1, 2, 3, 5} {
			tree, err := NewTree(k, refSpaces[:m]...)
			if err != nil {
				t.Fatal(err)
			}
			values := make([]float64, m)
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					for a, s := range refSpaces[:m] {
						values[a] = s.Low + rng.Float64()*s.Width()
					}
				case 1:
					for a, s := range refSpaces[:m] {
						values[a] = math.Floor((s.Low+rng.Float64()*s.Width())/1e-6) * 1e-6
					}
				default:
					iv, ok := subspaceRef(tree, kautz.Random(rng, 1+rng.Intn(k)))
					if !ok {
						t.Fatal("a random label is no node of the dividing walk")
					}
					for a := range values {
						edge := [2]float64{iv[a].Low, iv[a].High}[rng.Intn(2)]
						values[a] = [3]float64{edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1))}[rng.Intn(3)]
					}
				}
				checkAgainstReference(t, tree, values)
			}
		}
	}
}
