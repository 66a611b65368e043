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
// width is (hi−lo)/f. Hash, Subspace and IntersectsPrefix divide only at the
// root and halve below it; this is the reference they must agree with label
// for label and bound for bound (FuzzHashMatchesReference, subspaceRef).

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

// refSpaces are the attribute spaces FuzzHashMatchesReference builds its
// trees over: the bench's, a near-degenerate one (a few ulps wide, so
// intervals collapse within the first levels), a subnormal one and the widest
// NewTree admits.
var refSpaces = []Space{
	{0, 1000}, {-50, 100}, {0, 10}, {1, math.Nextafter(math.Nextafter(1, 2), 2)},
	{-1e-310, 2e-310}, {-2.9e307, 2.9e307}, {-3.7, 91.3},
}

// FuzzHashMatchesReference holds Hash, Subspace and IntersectsPrefix to the
// dividing walk: same label, same intervals bound for bound, same verdict
// and same refusals — for one to five attributes (five is past stackAttrs),
// every depth, values inside, on the edge of and outside their spaces (the
// committed corpus adds the collapsing, subnormal and widest spaces, labels
// that are no node's, and non-finite values). It is the check to run for any
// edit to this package's arithmetic.
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
		got, gotErr := tree.Hash(values...)
		want, wantErr := hashRef(tree, values...)
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("m=%d k=%d spaces %v: Hash(%v) = %q, %v; the dividing walk says %q, %v",
				m, k, spaces, values, got, gotErr, want, wantErr)
		}
		// The two doors for a caller that positions by integer: the label's
		// rank alone, and the label written into a record with its rank — or,
		// refused, nothing written.
		rank, rankErr := tree.HashRank(values...)
		var rec strings.Builder
		rec.WriteString("rec:")
		wrote, writeErr := tree.WriteHash(&rec, values...)
		if (rankErr == nil) != (gotErr == nil) || (writeErr == nil) != (gotErr == nil) || rec.String() != "rec:"+string(got) {
			t.Fatalf("m=%d k=%d: Hash(%v) = %q, %v but HashRank: %v, WriteHash: %q, %v", m, k, values, got, gotErr, rankErr, rec.String(), writeErr)
		}
		if gotErr == nil && (rank != kautz.Rank(got) || wrote != rank) {
			t.Fatalf("m=%d k=%d: Hash(%v) = %q of rank %d; HashRank says %d, WriteHash %d", m, k, values, got, kautz.Rank(got), rank, wrote)
		}
		lo, hi := make([]float64, m), make([]float64, m)
		for i := range lo {
			lo[i], hi[i] = boxLo, boxHi
		}
		box, boxErr := tree.NewBox(lo, hi)
		// The fuzzer's prefix — mostly not a node label — then every node on
		// the way down to the value's own leaf.
		for _, p := range append([]kautz.Str{kautz.Str(prefix)}, prefixes(got)...) {
			ref, ok := subspaceRef(tree, p)
			iv, err := tree.Subspace(p)
			if ok != (err == nil) {
				t.Fatalf("m=%d k=%d: Subspace(%q): %v, reference accepts = %v", m, k, p, err, ok)
			}
			if !ok {
				continue
			}
			for i := range ref {
				if iv[i] != ref[i] {
					t.Fatalf("m=%d k=%d spaces %v: Subspace(%q)[%d] = %v, the dividing walk says %v", m, k, spaces, p, i, iv[i], ref[i])
				}
			}
			if boxErr != nil {
				continue // NaN or inverted bounds: not a query
			}
			meets := true
			for i := range ref {
				meets = meets && ref[i].Overlaps(box.Lo[i], box.Hi[i])
			}
			if got, err := tree.IntersectsPrefix(p, box); err != nil || got != meets {
				t.Fatalf("m=%d k=%d: IntersectsPrefix(%q, %v) = %v, %v; the dividing walk says %v", m, k, p, box, got, err, meets)
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
// values, the bench's millionth grid, and the bounds of random tree nodes —
// the thirds and dyadic points where a piece ends — one ulp either side, at
// shallow, default and full depth.
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
					iv, err := tree.Subspace(kautz.Random(rng, 1+rng.Intn(k)))
					if err != nil {
						t.Fatal(err)
					}
					for a := range values {
						edge := [2]float64{iv[a].Low, iv[a].High}[rng.Intn(2)]
						values[a] = [3]float64{edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1))}[rng.Intn(3)]
					}
				}
				got, err := tree.Hash(values...)
				want, refErr := hashRef(tree, values...)
				if err != nil || refErr != nil || got != want {
					t.Fatalf("k=%d m=%d: Hash(%v) = %q, %v; the dividing walk says %q, %v", k, m, values, got, err, want, refErr)
				}
			}
		}
	}
}
