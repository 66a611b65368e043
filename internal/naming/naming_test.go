package naming

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"armada/internal/kautz"
)

func mustSingle(t *testing.T, k int, low, high float64) *Tree {
	t.Helper()
	tree, err := NewSingleTree(k, low, high)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func mustHash(t *testing.T, tree *Tree, vals ...float64) kautz.Str {
	t.Helper()
	s, err := tree.Hash(vals...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(0, Space{0, 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewTree(4); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewTree(4, Space{1, 1}); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewTree(4, Space{2, 1}); err == nil {
		t.Error("inverted space accepted")
	}
	tree, err := NewTree(4, Space{0, 1}, Space{-5, 5})
	if err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if tree.K() != 4 || tree.Attrs() != 2 {
		t.Errorf("K=%d Attrs=%d", tree.K(), tree.Attrs())
	}
}

// A space is admitted exactly when its width High−Low is finite, all the
// floor ⌊(v−Low)·L/W⌋ needs — three times the width may overflow, as the
// root's three-way split never computes it. Past a finite width (v−Low)/W is
// NaN, every value lands in one leaf and order preservation is gone.
func TestNewTreeSpaceWidthLimit(t *testing.T) {
	for _, tc := range []struct {
		space Space
		ok    bool
	}{
		{Space{0, math.MaxFloat64}, true},
		{Space{-math.MaxFloat64 / 2, math.MaxFloat64 / 2}, true},
		{Space{-2.9e307, 2.9e307}, true},
		{Space{-4e307, 4e307}, true},  // the width is finite, three times it is not
		{Space{-1e308, 1e308}, false}, // the width itself overflows
		{Space{-math.MaxFloat64, math.MaxFloat64}, false},
		{Space{math.Inf(-1), 0}, false},
		{Space{0, math.Inf(1)}, false},
		{Space{math.Inf(-1), math.Inf(1)}, false},
		{Space{math.NaN(), 1}, false},
		{Space{0, math.NaN()}, false},
	} {
		tree, err := NewTree(32, Space{0, 1}, tc.space)
		if !tc.ok {
			if !errors.Is(err, ErrBadSpace) {
				t.Errorf("space %v: got %v, want ErrBadSpace", tc.space, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("space %v rejected: %v", tc.space, err)
			continue
		}
		// At the limit the naming still orders values and names real intervals.
		s := tc.space
		var prev kautz.Str
		for _, v := range []float64{s.Low, s.Low + s.Width()/4, s.Low + s.Width()/2, s.High - s.Width()/4, s.High} {
			id := mustHash(t, tree, 0.5, v)
			if id <= prev {
				t.Errorf("space %v: Hash(%v) = %q does not follow %q", s, v, id, prev)
			}
			prev = id
			iv, err := tree.Subspace(id)
			if err != nil || !(iv[1].Low <= v && v <= iv[1].High) {
				t.Errorf("space %v: Subspace(Hash(%v)) = %v, %v", s, v, iv, err)
			}
		}
	}
}

// Figure 3 of the paper: partition tree P(2,4) over [0,1]. Attribute value
// 0.1 lies in the leaf labelled 0120.
func TestSingleHashPaperExample(t *testing.T) {
	tree := mustSingle(t, 4, 0, 1)
	if got := mustHash(t, tree, 0.1); got != "0120" {
		t.Fatalf("Single_hash(0.1) = %q, want 0120", got)
	}
	// Node U with label 0101 represents [0, 1/24] (a third of the space,
	// then three halvings).
	iv, err := tree.Subspace("0101")
	if err != nil {
		t.Fatal(err)
	}
	if iv[0].Low != 0 || diff(iv[0].High, 1.0/24) > 1e-15 {
		t.Fatalf("subspace(0101) = %+v, want [0, 1/24]", iv[0])
	}
}

// Section 4.1 example: the image of [0.1, 0.24] is the region ⟨0120, 0202⟩.
func TestSingleHashRegionPaperExample(t *testing.T) {
	tree := mustSingle(t, 4, 0, 1)
	box, err := tree.NewBox([]float64{0.1}, []float64{0.24})
	if err != nil {
		t.Fatal(err)
	}
	region, err := tree.QueryRegion(box)
	if err != nil {
		t.Fatal(err)
	}
	if region.Low != "0120" || region.High != "0202" {
		t.Fatalf("region = %v, want ⟨0120, 0202⟩", region)
	}
}

func TestSingleHashBoundaries(t *testing.T) {
	tree := mustSingle(t, 5, 0, 1000)
	min := mustHash(t, tree, 0)
	max := mustHash(t, tree, 1000)
	if min != kautz.MinExtend("", 5) {
		t.Errorf("Hash(L) = %q, want space minimum %q", min, kautz.MinExtend("", 5))
	}
	if max != kautz.MaxExtend("", 5) {
		t.Errorf("Hash(H) = %q, want space maximum %q", max, kautz.MaxExtend("", 5))
	}
	// Clamping.
	if got := mustHash(t, tree, -10); got != min {
		t.Errorf("Hash(-10) = %q, want clamp to %q", got, min)
	}
	if got := mustHash(t, tree, 2000); got != max {
		t.Errorf("Hash(2000) = %q, want clamp to %q", got, max)
	}
}

func TestHashRejectsNonFinite(t *testing.T) {
	tree := mustSingle(t, 4, 0, 1)
	for _, v := range []float64{nan(), inf(1), inf(-1)} {
		if _, err := tree.Hash(v); err == nil {
			t.Errorf("Hash(%v) accepted", v)
		}
	}
	if _, err := tree.Hash(0.5, 0.5); err == nil {
		t.Error("wrong arity accepted")
	}
}

func nan() float64 { return kindNaN }
func inf(s int) float64 {
	if s > 0 {
		return kindPosInf
	}
	return kindNegInf
}

var (
	kindNaN    = func() float64 { var z float64; return z / z }() // quiet NaN without importing math twice
	kindPosInf = func() float64 { var z float64; return 1 / z }()
	kindNegInf = func() float64 { var z float64; return -1 / z }()
)

// Single_hash is monotone: v1 ≤ v2 ⟹ F(v1) ≼ F(v2).
func TestSingleHashMonotoneQuick(t *testing.T) {
	tree, err := NewSingleTree(20, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	f := func(a, b float64) bool {
		a = normalize(a, 0, 1000)
		b = normalize(b, 0, 1000)
		if a > b {
			a, b = b, a
		}
		ha, err1 := tree.Hash(a)
		hb, err2 := tree.Hash(b)
		return err1 == nil && err2 == nil && ha <= hb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Interval preservation (Definition 2), forward direction: every value in
// [a,b] hashes into ⟨F(a), F(b)⟩; reverse direction: every leaf of the
// region holds some value of [a,b] — equivalently, each leaf's interval
// overlaps [a,b].
func TestSingleHashIntervalPreservingQuick(t *testing.T) {
	const k = 12
	tree, err := NewSingleTree(k, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	f := func(aRaw, bRaw, vRaw float64) bool {
		a := normalize(aRaw, 0, 1000)
		b := normalize(bRaw, 0, 1000)
		if a > b {
			a, b = b, a
		}
		ha, _ := tree.Hash(a)
		hb, _ := tree.Hash(b)
		region := kautz.Region{Low: ha, High: hb}

		// Forward: an in-range value lands in the region.
		v := a + normalize(vRaw, 0, 1)*(b-a)
		hv, err := tree.Hash(v)
		if err != nil || !region.Contains(hv) {
			return false
		}

		// Reverse: a sampled region member's leaf interval overlaps [a,b].
		span := kautz.Rank(hb) - kautz.Rank(ha)
		mid, err := kautz.FromRank(kautz.Rank(ha)+uint64(rng.Int63n(int64(span+1))), k)
		if err != nil {
			return false
		}
		iv, err := tree.Subspace(mid)
		if err != nil {
			return false
		}
		return iv[0].Overlaps(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Exhaustive interval preservation at small k: for every leaf, membership in
// ⟨F(a),F(b)⟩ coincides with the leaf's interval overlapping [a,b].
func TestSingleHashIntervalPreservingExhaustive(t *testing.T) {
	const k = 6
	tree, err := NewSingleTree(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		ha, _ := tree.Hash(a)
		hb, _ := tree.Hash(b)
		region := kautz.Region{Low: ha, High: hb}
		for _, leaf := range enumerate(k) {
			iv, err := tree.Subspace(leaf)
			if err != nil {
				t.Fatal(err)
			}
			// A leaf strictly inside (a,b) must be in the region; a leaf
			// whose interval misses [a,b] must be outside. Leaves that only
			// touch the boundary may fall either way depending on where a
			// and b sit inside their own leaves.
			strictlyInside := iv[0].Low > a && iv[0].High < b
			misses := !iv[0].Overlaps(a, b)
			if strictlyInside && !region.Contains(leaf) {
				t.Fatalf("leaf %q inside (%v,%v) but outside region %v", leaf, a, b, region)
			}
			if misses && region.Contains(leaf) && leaf != ha && leaf != hb {
				t.Fatalf("leaf %q misses [%v,%v] but inside region %v", leaf, a, b, region)
			}
		}
	}
}

// Leaf subspaces tile the attribute space in leaf order.
func TestLeafIntervalsTile(t *testing.T) {
	const k = 5
	tree := mustSingle(t, k, -10, 10)
	leaves := enumerate(k)
	prevHigh := -10.0
	for _, leaf := range leaves {
		iv, err := tree.Subspace(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if diff := iv[0].Low - prevHigh; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("leaf %q starts at %v, want %v", leaf, iv[0].Low, prevHigh)
		}
		if iv[0].High <= iv[0].Low {
			t.Fatalf("leaf %q has empty interval %+v", leaf, iv[0])
		}
		prevHigh = iv[0].High
	}
	if prevHigh != 10 {
		t.Fatalf("leaves end at %v, want 10", prevHigh)
	}
}

// Hash and Subspace are mutually consistent: the leaf returned by Hash(v)
// has an interval containing v, and the leaf's center hashes back to it.
func TestHashSubspaceRoundTripQuick(t *testing.T) {
	tree, err := NewSingleTree(16, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	f := func(raw float64) bool {
		v := normalize(raw, 0, 1000)
		leaf, err := tree.Hash(v)
		if err != nil {
			return false
		}
		iv, err := tree.Subspace(leaf)
		if err != nil || !(iv[0].Low <= v && v <= iv[0].High) {
			return false
		}
		back, err := tree.Hash(iv[0].Low + (iv[0].High-iv[0].Low)/2) // the leaf's centre
		return err == nil && back == leaf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Multiple_hash is partial-order preserving (Definition 4).
func TestMultipleHashPartialOrderQuick(t *testing.T) {
	tree, err := NewTree(18, Space{0, 100}, Space{-50, 50}, Space{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	f := func(a0, a1, a2, d0, d1, d2 float64) bool {
		lo := []float64{normalize(a0, 0, 100), normalize(a1, -50, 50), normalize(a2, 0, 1)}
		hi := []float64{
			lo[0] + normalize(d0, 0, 100-lo[0]),
			lo[1] + normalize(d1, 0, 50-lo[1]),
			lo[2] + normalize(d2, 0, 1-lo[2]),
		}
		h1, err1 := tree.Hash(lo...)
		h2, err2 := tree.Hash(hi...)
		return err1 == nil && err2 == nil && h1 <= h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Every leaf whose subspace intersects a box lies inside the box's
// ⟨LowT,HighT⟩ region (the containment MIRA relies on).
func TestBoxRegionContainsIntersectingLeaves(t *testing.T) {
	const k = 6
	tree, err := NewTree(k, Space{0, 10}, Space{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		lo := []float64{rng.Float64() * 10, rng.Float64() * 10}
		hi := []float64{lo[0] + rng.Float64()*(10-lo[0]), lo[1] + rng.Float64()*(10-lo[1])}
		box, err := tree.NewBox(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		region, err := tree.QueryRegion(box)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range enumerate(k) {
			iv, err := tree.Subspace(leaf)
			if err != nil {
				t.Fatal(err)
			}
			strictly := true
			for i := range iv {
				if !(iv[i].Low > box.Lo[i]-1e-12 && iv[i].High < box.Hi[i]+1e-12) {
					strictly = false
					break
				}
			}
			if strictly && !region.Contains(leaf) {
				t.Fatalf("leaf %q inside box but outside region %v", leaf, region)
			}
		}
	}
}

func TestIntersectsPrefix(t *testing.T) {
	tree, err := NewTree(8, Space{0, 100}, Space{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	box, err := tree.NewBox([]float64{0, 0}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	// The whole space intersects.
	ok, err := tree.IntersectsPrefix("", box)
	if err != nil || !ok {
		t.Fatalf("root should intersect: %v %v", ok, err)
	}
	// The top-most first branch (attr 0 in [0, 100/3]) intersects; the last
	// (attr 0 in [200/3, 100]) does not.
	ok, err = tree.IntersectsPrefix("0", box)
	if err != nil || !ok {
		t.Fatalf("branch 0 should intersect: %v %v", ok, err)
	}
	ok, err = tree.IntersectsPrefix("2", box)
	if err != nil || ok {
		t.Fatalf("branch 2 should not intersect: %v %v", ok, err)
	}
}

func TestIntersectsPrefixMatchesSubspace(t *testing.T) {
	const k = 6
	tree, err := NewTree(k, Space{0, 1}, Space{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	box, err := tree.NewBox([]float64{0.2, 0.3}, []float64{0.4, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range enumerate(k) {
		iv, err := tree.Subspace(leaf)
		if err != nil {
			t.Fatal(err)
		}
		want := iv[0].Overlaps(box.Lo[0], box.Hi[0]) && iv[1].Overlaps(box.Lo[1], box.Hi[1])
		got, err := tree.IntersectsPrefix(leaf, box)
		if err != nil || got != want {
			t.Fatalf("IntersectsPrefix(%q) = %v/%v, want %v", leaf, got, err, want)
		}
	}
}

func TestNewBoxValidation(t *testing.T) {
	tree, err := NewTree(4, Space{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.NewBox([]float64{0.9}, []float64{0.1}); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := tree.NewBox([]float64{0.1, 0.2}, []float64{0.3, 0.4}); err == nil {
		t.Error("wrong arity accepted")
	}
	// Out-of-space bounds are kept as given; only the corners' ranks clamp.
	b, err := tree.NewBox([]float64{-5}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if b.Lo[0] != -5 || b.Hi[0] != 7 {
		t.Errorf("box = %+v, want the bounds as given", b)
	}
	if c, lo, hi := tree.Corners(b), kautz.Rank("0101"), kautz.Rank("2121"); c.Lo != lo || c.Hi != hi {
		t.Errorf("corners = %v, want the space's ends' ranks [%d, %d]", c, lo, hi)
	}
}

func TestBoxContains(t *testing.T) {
	b := Box{Lo: []float64{0, 10}, Hi: []float64{1, 20}}
	if !b.Contains([]float64{0.5, 15}) {
		t.Error("interior point rejected")
	}
	if !b.Contains([]float64{0, 10}) || !b.Contains([]float64{1, 20}) {
		t.Error("boundary points rejected")
	}
	if b.Contains([]float64{0.5, 25}) || b.Contains([]float64{-1, 15}) {
		t.Error("exterior point accepted")
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// normalize maps an arbitrary quick-generated float into [lo, hi].
func normalize(v, lo, hi float64) float64 {
	if v != v || v > 1e300 || v < -1e300 { // NaN or huge
		return lo
	}
	if v < 0 {
		v = -v
	}
	for v > hi-lo {
		v /= 2
	}
	return lo + v
}
