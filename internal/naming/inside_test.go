package naming

import (
	"math"
	"testing"

	"armada/internal/kautz"
)

// FuzzHashInsideLeaf checks the obligation MIRA's pruning rests on: a value
// inside a box hashes under no node the box's pruning predicate refuses.
// Every prefix of Hash(v) — the root, every node on the way down and the leaf
// itself — must pass IntersectsPrefix for the boxes [v, v], [Low, v] and
// [v, High] on every attribute, and for a box that takes each of the three by
// turns across the attributes, values clamped into their spaces first, as
// the hash clamps them. The seeds are the rounded root thirds of each
// reference space, one and two ulps either side, over the subnormal space too
// (where L/W overflows and the floor scales first), and the committed corpus
// (testdata/fuzz/FuzzHashInsideLeaf) keeps the points where float subspaces
// once put a value outside its leaf (outside-*) and the old rounding
// margin's boundary points.
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
		for turn := range 4 {
			lo, hi := make([]float64, m), make([]float64, m)
			for i, s := range spaces {
				v := math.Min(math.Max(values[i], s.Low), s.High)
				lo[i], hi[i] = v, v
				mode := turn // [v, v], [Low, v] and [v, High] throughout, then by turns
				if turn == 3 {
					mode = i % 3
				}
				switch mode {
				case 1:
					lo[i] = s.Low
				case 2:
					hi[i] = s.High
				}
			}
			box, err := tree.NewBox(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range prefixes(leaf) {
				if ok, err := tree.IntersectsPrefix(p, box); err != nil || !ok {
					t.Fatalf("m=%d k=%d spaces %v: %v hashes to %q, in box %v, but IntersectsPrefix(%q) = %v, %v",
						m, k, spaces, values, leaf, box, p, ok, err)
				}
			}
		}
	})
}
