package naming

import (
	"math"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// subspaceRef is the node's subspace under the dividing walk: validate the
// label, then look each symbol up in the explicit child-label list and divide
// that piece's attribute. TestClosedFormAtMidpoints probes the points it
// bounds nodes by.
func subspaceRef(t *Tree, prefix kautz.Str) ([]Interval, bool) {
	if len(prefix) > t.k || !kautz.Valid(prefix) {
		return nil, false
	}
	children := func(prev byte) []byte {
		switch prev {
		case 0:
			return []byte{'0', '1', '2'}
		case '0':
			return []byte{'1', '2'}
		case '1':
			return []byte{'0', '2'}
		default:
			return []byte{'0', '1'}
		}
	}
	iv := make([]Interval, len(t.spaces))
	for i, s := range t.spaces {
		iv[i] = Interval{Low: s.Low, High: s.High}
	}
	var prev byte
	for j := 0; j < len(prefix); j++ {
		attr := j % len(t.spaces)
		idx := -1
		for i, c := range children(prev) {
			if c == prefix[j] {
				idx = i
			}
		}
		if idx < 0 {
			return nil, false
		}
		iv[attr].Low, iv[attr].High = pieceBounds(iv[attr].Low, iv[attr].High, fanout(j), idx)
		prev = prefix[j]
	}
	return iv, true
}

// FuzzIntersectsPrefix holds the pruning predicate to an enumerated
// reference at small k: node p can hold a value of the box exactly when some
// leaf under it has, on every attribute, its leaf index (leafIndex, read off
// the label level by level) between those of the box's corners. It refuses
// exactly the prefixes that are no node: longer than k, a symbol outside the
// alphabet, or one repeating its predecessor.
func FuzzIntersectsPrefix(f *testing.F) {
	f.Add(uint8(0), uint8(7), "0121", 10.0, 20.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(1), uint8(11), "2010", 0.0, 900.0, 40.0, 60.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(23), "102012010", 333.3, 333.4, 99.0, 100.0, 0.0, 10.0)
	f.Add(uint8(1), uint8(3), "", 5.0, 5.0, 5.0, 5.0, 0.0, 0.0)
	f.Add(uint8(0), uint8(5), "0112", 1.0, 2.0, 0.0, 0.0, 0.0, 0.0)  // repeated symbol
	f.Add(uint8(2), uint8(4), "01210", 1.0, 2.0, 0.0, 1.0, 0.0, 1.0) // longer than k
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, prefix string, lo0, hi0, lo1, hi1, lo2, hi2 float64) {
		m := 1 + int(mRaw)%3
		k := 1 + int(kRaw)%12
		tree, err := NewTree(k, []Space{{0, 1000}, {-50, 100}, {0, 10}}[:m]...)
		if err != nil {
			t.Fatal(err)
		}
		box, err := tree.NewBox([]float64{lo0, lo1, lo2}[:m], []float64{hi0, hi1, hi2}[:m])
		if err != nil {
			t.Skip() // NaN or inverted bounds: not a query
		}
		p := kautz.Str(prefix)
		got, gotErr := tree.IntersectsPrefix(p, box)
		if node := len(p) <= k && kautz.Valid(p); node != (gotErr == nil) {
			t.Fatalf("m=%d k=%d prefix %q: error %v, a node = %v", m, k, p, gotErr, node)
		}
		if gotErr != nil {
			return
		}
		cLo, _ := tree.HashRank(box.Lo...)
		cHi, _ := tree.HashRank(box.Hi...)
		want := false
		for r, last := kautz.PrefixRanks(p, k); r <= last && !want; r++ {
			want = true
			for a := range m {
				idx := leafIndex(k, m, r, a)
				want = want && leafIndex(k, m, cLo, a) <= idx && idx <= leafIndex(k, m, cHi, a)
			}
		}
		if got != want {
			t.Fatalf("m=%d k=%d IntersectsPrefix(%q, %v) = %v, the leaves under it say %v", m, k, p, box, got, want)
		}
	})
}

// For a single attribute the region predicate implies the box predicate:
// whenever ⟨Hash(lo), Hash(hi)⟩ contains a string with prefix p, node p's
// interval overlaps [lo, hi]. The engine relies on this to skip the box
// predicate on single-attribute descents, so it is checked exhaustively —
// every k ≤ 8, every pair of leaves, every node — with query bounds at the
// leaves' centres and (where float rounding could bite) exactly on their
// edges.
func TestContainsPrefixImpliesIntersectsSingleAttr(t *testing.T) {
	for k := 1; k <= 8; k++ {
		spaces := []Space{{0, 1000}, {-3.7, 91.3}}
		if k > 6 {
			spaces = spaces[:1] // the pair count quadruples per level; one space keeps the test in seconds
		}
		for _, sp := range spaces {
			tree, err := NewSingleTree(k, sp.Low, sp.High)
			if err != nil {
				t.Fatal(err)
			}
			leaves := enumerate(k)
			ivs := make([]Interval, len(leaves))
			for i, leaf := range leaves {
				iv, err := tree.Subspace(leaf)
				if err != nil {
					t.Fatal(err)
				}
				ivs[i] = iv[0]
			}
			centre := func(i int) float64 { return ivs[i].Low + (ivs[i].High-ivs[i].Low)/2 }
			for a := range leaves {
				for b := a; b < len(leaves); b++ {
					bounds := [][2]float64{{centre(a), centre(b)}}
					if k <= 6 || b-a <= 2 {
						bounds = append(bounds,
							[2]float64{ivs[a].Low, ivs[b].Low}, [2]float64{ivs[a].Low, ivs[b].High},
							[2]float64{ivs[a].High, ivs[b].Low}, [2]float64{ivs[a].High, ivs[b].High})
					}
					for _, lh := range bounds {
						if lh[0] > lh[1] {
							continue
						}
						box, err := tree.NewBox(lh[:1], lh[1:])
						if err != nil {
							t.Fatal(err)
						}
						region, err := tree.QueryRegion(box)
						if err != nil {
							t.Fatal(err)
						}
						checkImplication(t, tree, region, box, "")
					}
				}
			}
		}
	}
}

// checkImplication walks every node under p that the region predicate
// admits (a node it rejects has no admitted descendant) and requires the
// box predicate to admit it too.
func checkImplication(t *testing.T, tree *Tree, region kautz.Region, box Box, p kautz.Str) {
	if !region.ContainsPrefix(p) {
		return
	}
	ok, err := tree.IntersectsPrefix(p, box)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("k=%d box [%v, %v] region %v: ContainsPrefix(%q) holds but IntersectsPrefix does not",
			tree.K(), box.Lo[0], box.Hi[0], region, p)
	}
	if len(p) == tree.K() {
		return
	}
	for _, c := range kautz.Extensions(p) {
		checkImplication(t, tree, region, box, p+kautz.Str(c))
	}
}

// The MIRA predicate runs per candidate child per hop, HashInto once per
// publish and Hash twice per query region; pin what they may allocate.
func TestPredicateAllocs(t *testing.T) {
	tree, err := NewTree(32, Space{0, 1000}, Space{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	box, err := tree.NewBox([]float64{100, 10}, []float64{300, 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []kautz.Str{"", "01", "0121020", kautz.MinExtend("01", 32)} {
		if n := testing.AllocsPerRun(100, func() { sinkBool, _ = tree.IntersectsPrefix(p, box) }); n != 0 {
			t.Errorf("IntersectsPrefix(%q) allocates %v times", p, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkStr, _ = tree.Hash(250, 25) }); n > 1 {
		t.Errorf("Hash allocates %v times, want only the returned string", n)
	}
	var label [kautz.MaxRankLen]byte
	if n := testing.AllocsPerRun(100, func() { _, _ = tree.HashInto(&label, 250, 25) }); n != 0 {
		t.Errorf("HashInto allocates %v times", n)
	}
}

var (
	sinkBool bool
	sinkStr  kautz.Str
)

func BenchmarkHash(b *testing.B) {
	tree, err := NewTree(32, Space{0, 1000}, Space{0, 100})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([][2]float64, 1024)
	for i := range vals {
		vals[i] = [2]float64{rng.Float64() * 1000, rng.Float64() * 100}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := &vals[i%len(vals)]
		sinkStr, _ = tree.Hash(v[0], v[1])
	}
}

// BenchmarkSingleHash is Single_hash: one attribute at the default depth, a
// fresh random value each time.
func BenchmarkSingleHash(b *testing.B) {
	tree, err := NewSingleTree(32, 0, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr, _ = tree.Hash(rng.Float64() * 1000)
	}
}

func BenchmarkIntersectsPrefix(b *testing.B) {
	tree, err := NewTree(32, Space{0, 1000}, Space{0, 100})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	type probe struct {
		p   kautz.Str
		box Box
	}
	probes := make([]probe, 1024)
	for i := range probes {
		lo := []float64{rng.Float64() * 900, rng.Float64() * 90}
		box, err := tree.NewBox(lo, []float64{lo[0] + 50, lo[1] + 5})
		if err != nil {
			b.Fatal(err)
		}
		probes[i] = probe{p: kautz.Random(rng, 1+rng.Intn(32)), box: box}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &probes[i%len(probes)]
		sinkBool, _ = tree.IntersectsPrefix(pr.p, pr.box)
	}
}

// FuzzHashOrder checks the property range queries rest on, per attribute
// count: naming preserves order. If a ≤ b in every attribute then
// Hash(a) ≤ Hash(b) — for one attribute a total order, for several the
// partial order MIRA's ⟨Multiple_hash(ω1), Multiple_hash(ω2)⟩ bounds rely
// on — with both labels Kautz strings of the tree's depth; values outside a
// space clamp to it, and a non-finite value is refused, not ordered.
func FuzzHashOrder(f *testing.F) {
	f.Add(uint8(0), uint8(31), 10.0, 0.0, 0.0, 20.0, 0.0, 0.0)
	f.Add(uint8(1), uint8(31), 0.0, -50.0, 0.0, 1000.0, 100.0, 0.0)
	f.Fuzz(func(t *testing.T, mRaw, kRaw uint8, a0, a1, a2, b0, b1, b2 float64) {
		m := 1 + int(mRaw)%3
		k := 1 + int(kRaw)%kautz.MaxRankLen
		tree, err := NewTree(k, []Space{{0, 1000}, {-50, 100}, {0, 10}}[:m]...)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := []float64{a0, a1, a2}[:m], []float64{b0, b1, b2}[:m]
		finite := true
		for i := range lo {
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
			for _, v := range [2]float64{lo[i], hi[i]} {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		hlo, errLo := tree.Hash(lo...)
		hhi, errHi := tree.Hash(hi...)
		if !finite {
			if errLo == nil && errHi == nil {
				t.Fatalf("m=%d k=%d: Hash accepted both %v and %v", m, k, lo, hi)
			}
			return
		}
		if errLo != nil || errHi != nil {
			t.Fatalf("m=%d k=%d: Hash(%v): %v, Hash(%v): %v", m, k, lo, errLo, hi, errHi)
		}
		if len(hlo) != k || len(hhi) != k || !kautz.Valid(hlo) || !kautz.Valid(hhi) {
			t.Fatalf("m=%d k=%d: Hash(%v) = %q, Hash(%v) = %q: not ObjectIDs", m, k, lo, hlo, hi, hhi)
		}
		if hlo > hhi {
			t.Fatalf("m=%d k=%d: %v ≤ %v but Hash %q > %q", m, k, lo, hi, hlo, hhi)
		}
	})
}
