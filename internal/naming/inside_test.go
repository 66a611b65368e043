package naming

import (
	"math"
	"testing"

	"armada/internal/kautz"
)

// FuzzHashInsideLeaf checks the proof obligation a whole-run admission
// under a multi-attribute box rests on: every value the hash maps into a leaf
// lies inside that leaf's Subspace, on every attribute — values clamped into
// their spaces first, as the hash clamps them. A run whose owner's subspace
// lies inside the box could then skip the per-object box test. It does not
// hold exactly: a value can fall outside by a few ulps of its space (skipped
// below, with the committed outside-* entries); past that margin it fails.
// The seeds are
// the rounded root thirds of each reference space, one and two ulps either
// side, and (committed corpus, testdata/fuzz/FuzzHashInsideLeaf) the rounding
// margin's boundary points FuzzHashMatchesReference keeps.
func FuzzHashInsideLeaf(f *testing.F) {
	for first, s := range refSpaces {
		w := (s.High - s.Low) / 3
		for _, b := range []float64{s.Low + w, s.Low + 2*w} {
			for _, v := range []float64{b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)),
				math.Nextafter(math.Nextafter(b, math.Inf(-1)), math.Inf(-1)), math.Nextafter(math.Nextafter(b, math.Inf(1)), math.Inf(1))} {
				f.Add(uint8(0), uint8(31), uint8(first), v, 0.0, 0.0, 0.0, 0.0)
				f.Add(uint8(1), uint8(61), uint8(first), v, v, v, 0.0, 0.0)
			}
		}
	}
	f.Fuzz(func(t *testing.T, mSel, kRaw, first uint8, v0, v1, v2, v3, v4 float64) {
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
		leaf, err := tree.Hash(values...)
		if err != nil {
			return // a non-finite value: refused, in no leaf
		}
		iv, err := tree.Subspace(leaf)
		if err != nil {
			t.Fatal(err)
		}
		rounding := false
		for i, s := range spaces {
			v := math.Min(math.Max(values[i], s.Low), s.High)
			out := max(iv[i].Low-v, v-iv[i].High) // > 0: outside, by that much
			if out > 4*0x1p-53*(math.Abs(s.Low)+math.Abs(s.High)) {
				t.Fatalf("m=%d k=%d spaces %v: attribute %d's value %v (of %v) hashes to leaf %q, whose subspace holds [%v, %v]",
					m, k, spaces, i, v, values[i], leaf, iv[i].Low, iv[i].High)
			}
			rounding = rounding || out > 0
		}
		if rounding {
			// Known counterexamples (corpus outside-*): a value within rounding
			// of a leaf boundary — a rounded root third, or a bisection's
			// midpoint — can hash to the leaf beside the one whose Subspace
			// holds it. The hash picks the piece from the quotient of v − lo,
			// Subspace bounds it by lo + w; the two round apart by a few ulps
			// of the space. An inside-the-box test on a leaf's Subspace must
			// widen it by this margin before it can stand in for Box.Contains.
			t.Skip("value outside its leaf's Subspace by rounding only")
		}
	})
}
