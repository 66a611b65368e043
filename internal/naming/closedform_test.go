package naming

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// cellsOf is what HashRank hands the closed form and the walk: the values
// clamped to their spaces, each with its space as the interval.
func cellsOf(tree *Tree, values []float64) []cell {
	cells := make([]cell, len(values))
	for i, s := range tree.spaces {
		cells[i] = cell{lo: s.Low, hi: s.High, v: math.Min(math.Max(values[i], s.Low), s.High)}
	}
	return cells
}

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

// midpoints lists, for the leaf that holds values, every point the walk
// compared a value with on its way down: the root's two third boundaries
// (attribute 0), then each level's midpoint of the attribute it split.
func midpoints(t *testing.T, tree *Tree, values []float64) (attr []int, mid []float64) {
	label, err := tree.Hash(values...)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.spaces[0]
	for idx := 1; idx < 3; idx++ {
		lo, _ := rootBounds(s.Low, s.High, idx)
		attr, mid = append(attr, 0), append(mid, lo)
	}
	m := len(tree.spaces)
	for j := 1; j < tree.k; j++ {
		iv, err := tree.Subspace(label[:j])
		if err != nil {
			t.Fatal(err)
		}
		a := j % m
		attr, mid = append(attr, a), append(mid, iv[a].Low+float64((iv[a].High-iv[a].Low)*0.5))
	}
	return attr, mid
}

// TestClosedFormAtMidpoints checks the closed form where its margin matters:
// at every point the walk compared a random value with, and 1 to 4 ulps
// either side of it, HashRank must give the walk's rank and Hash the
// dividing walk's label — on the bench's spaces, one that straddles zero, one
// 8 ulps wide at 10¹⁵, the widest NewTree accepts and a subnormal one, from
// depth 1 to MaxRankLen. A margin too thin for the walk's rounding (0, say)
// fails here.
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
							checkAgainstWalks(t, tree, probe)
							probe[attrs[i]] = math.Nextafter(probe[attrs[i]], dir)
						}
					}
				}
			}
		}
	}
}

// checkAgainstWalks holds HashRank to the walk and Hash to the dividing
// walk at one value.
func checkAgainstWalks(t *testing.T, tree *Tree, values []float64) {
	t.Helper()
	cells := cellsOf(tree, values)
	want := tree.walk(cells, third(cells[0]))
	got, err := tree.HashRank(values...)
	if err != nil || got != want {
		t.Fatalf("k=%d spaces %v: HashRank(%v) = %d, %v; the walk says %d", tree.k, tree.spaces, values, got, err, want)
	}
	label, err := tree.Hash(values...)
	ref, refErr := hashRef(tree, values...)
	if err != nil || refErr != nil || label != ref {
		t.Fatalf("k=%d spaces %v: Hash(%v) = %q, %v; the dividing walk says %q, %v", tree.k, tree.spaces, values, label, err, ref, refErr)
	}
}

// TestClosedFormCoverage checks that the closed form, not the walk, names
// nearly every value: under 0.1% of 10⁵ uniform values on each of the
// bench's spaces at the default depth may fall back. A margin grown too
// wide, or a closed form switched off, fails here while every result stays
// right.
func TestClosedFormCoverage(t *testing.T) {
	const n = 100000
	for _, spaces := range [][]Space{{{0, 1000}}, {{0, 1000}, {0, 100}}} {
		tree, err := NewTree(32, spaces...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		values := make([]float64, len(spaces))
		walked := 0
		for range n {
			for a, s := range spaces {
				values[a] = s.Low + rng.Float64()*s.Width()
			}
			cells := cellsOf(tree, values)
			if _, ok := tree.closedForm(cells, third(cells[0])); !ok {
				walked++
			}
		}
		if walked*1000 >= n {
			t.Errorf("spaces %v: the walk named %d of %d values, want under 0.1%%", spaces, walked, n)
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
