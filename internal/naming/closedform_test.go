package naming

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// widestSpace is the widest space NewTree accepts, centred on zero: its
// width w is the largest float64 whose 3·w is finite.
func widestSpace() Space {
	w := math.MaxFloat64 / 3
	for !math.IsInf(3*w, 0) {
		w = math.Nextafter(w, math.Inf(1))
	}
	for math.IsInf(3*w, 0) {
		w = math.Nextafter(w, 0)
	}
	return Space{Low: -w / 2, High: w / 2}
}

// midpoints lists, for the leaf of the dividing walk that holds values,
// every point the walk compared a value with on its way down: the root's two
// third boundaries (attribute 0), then each level's midpoint of the attribute
// it split.
func midpoints(t *testing.T, tree *Tree, values []float64) (attr []int, mid []float64) {
	label, err := hashRef(tree, values...)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.spaces[0]
	for idx := 1; idx < 3; idx++ {
		lo, _ := pieceBounds(s.Low, s.High, 3, idx)
		attr, mid = append(attr, 0), append(mid, lo)
	}
	m := len(tree.spaces)
	for j := 1; j < tree.k; j++ {
		iv, ok := subspaceRef(tree, label[:j])
		if !ok {
			t.Fatalf("%q is no node of the dividing walk", label[:j])
		}
		a := j % m
		attr, mid = append(attr, a), append(mid, iv[a].Low+(iv[a].High-iv[a].Low)/2)
	}
	return attr, mid
}

// TestClosedFormAtMidpoints checks the floor where rounding decides: at every
// point the dividing walk compared a random value with, and 1 to 4 ulps
// either side of it, HashRank must name the walk's leaf wherever δ says
// neither rounds across a boundary, and a neighbouring one elsewhere
// (checkAgainstReference) — on the bench's spaces, one that straddles zero,
// one 8 ulps wide at 10¹⁵, the widest NewTree accepts and a subnormal one,
// from depth 1 to MaxRankLen.
func TestClosedFormAtMidpoints(t *testing.T) {
	spaceSets := [][]Space{
		{{0, 1000}}, {{0, 1000}, {0, 100}}, {{-50, 100}}, {{1e15, 1e15 + 1}},
		{widestSpace()}, {{-1e-310, 2e-310}},
	}
	rng := rand.New(rand.NewSource(45))
	for _, spaces := range spaceSets {
		for _, k := range []int{1, 2, 7, 31, 32, 40, kautz.MaxRankLen} {
			tree, err := NewTree(k, spaces...)
			if err != nil {
				t.Fatal(err)
			}
			values := make([]float64, len(spaces))
			for range 6 {
				for a, s := range spaces {
					values[a] = s.Low + rng.Float64()*s.Width()
				}
				attrs, mids := midpoints(t, tree, values)
				for i, mid := range mids {
					probe := append([]float64(nil), values...)
					for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
						probe[attrs[i]] = mid
						for ulps := 0; ulps <= 4; ulps++ {
							checkAgainstReference(t, tree, probe)
							probe[attrs[i]] = math.Nextafter(probe[attrs[i]], dir)
						}
					}
				}
			}
		}
	}
}

// TestClosedFormCoverage checks that the agreement above is not vacuous:
// on each of the bench's spaces at the default depth, δ decides every
// attribute of at least 99.9% of 10⁵ uniform values, so the floor is held to
// the dividing walk's very leaf there. A δ grown too wide fails here while
// every check stays green.
func TestClosedFormCoverage(t *testing.T) {
	const n = 100000
	for _, spaces := range [][]Space{{{0, 1000}}, {{0, 1000}, {0, 100}}} {
		tree, err := NewTree(32, spaces...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		values := make([]float64, len(spaces))
		undecided := 0
		for range n {
			for a, s := range spaces {
				values[a] = s.Low + rng.Float64()*s.Width()
			}
			if checkAgainstReference(t, tree, values) < len(spaces) {
				undecided++
			}
		}
		if undecided*1000 >= n {
			t.Errorf("spaces %v: δ left %d of %d values undecided, want under 0.1%%", spaces, undecided, n)
		}
	}
}

var sinkRank uint64

// BenchmarkHashRank is the rank alone, as a lookup, a range's two corners
// and an unpublish take it: Single_hash and two attributes at the default
// depth, over a fixed array of values.
func BenchmarkHashRank(b *testing.B) {
	for _, spaces := range [][]Space{{{0, 1000}}, {{0, 1000}, {0, 100}}} {
		b.Run(fmt.Sprintf("m=%d", len(spaces)), func(b *testing.B) {
			tree, err := NewTree(32, spaces...)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			vals := make([][2]float64, 1024)
			for i := range vals {
				vals[i] = [2]float64{rng.Float64() * 1000, rng.Float64() * 100}
			}
			m := len(spaces)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRank, _ = tree.HashRank(vals[i%len(vals)][:m]...)
			}
		})
	}
}
