package kautz

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion("010", "021"); err != nil {
		t.Fatalf("valid region rejected: %v", err)
	}
	if _, err := NewRegion("021", "010"); err == nil {
		t.Error("inverted region accepted")
	}
	if _, err := NewRegion("01", "021"); err == nil {
		t.Error("length-mismatched region accepted")
	}
	if _, err := NewRegion("011", "021"); err == nil {
		t.Error("invalid bound accepted")
	}
}

// Definition 1 example from the paper: ⟨010, 021⟩ = {010, 012, 020, 021}.
func TestRegionPaperExample(t *testing.T) {
	r, err := NewRegion("010", "021")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Strings()
	want := []Str{"010", "012", "020", "021"}
	if len(got) != len(want) {
		t.Fatalf("region %v = %v, want %v", r, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("region %v = %v, want %v", r, got, want)
		}
	}
	if r.Size() != 4 {
		t.Fatalf("Size = %d, want 4", r.Size())
	}
}

// Section 4.1 example: the range of [0.1, 0.24] under Single_hash on [0,1]
// with k=4 is ⟨0120, 0202⟩ containing leaves P, R, W, S (four strings).
func TestRegionSecondPaperExample(t *testing.T) {
	r, err := NewRegion("0120", "0202")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4 {
		t.Fatalf("⟨0120,0202⟩ size = %d, want 4", r.Size())
	}
	want := []Str{"0120", "0121", "0201", "0202"}
	for i, s := range r.Strings() {
		if s != want[i] {
			t.Fatalf("⟨0120,0202⟩ = %v, want %v", r.Strings(), want)
		}
	}
}

func TestContains(t *testing.T) {
	r := Region{Low: "0120", High: "0202"}
	for _, s := range []Str{"0120", "0121", "0201", "0202"} {
		if !r.Contains(s) {
			t.Errorf("%v should contain %q", r, s)
		}
	}
	for _, s := range []Str{"0102", "0210", "012", "01201"} {
		if r.Contains(s) {
			t.Errorf("%v should not contain %q", r, s)
		}
	}
}

func TestContainsPrefixExhaustive(t *testing.T) {
	const k = 6
	all := Enumerate(k)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		i, j := rng.Intn(len(all)), rng.Intn(len(all))
		if i > j {
			i, j = j, i
		}
		r := Region{Low: all[i], High: all[j]}
		prefixes := []Str{"", "0", "1", "2", "01", "20", "210", "0121", "21021", all[rng.Intn(len(all))]}
		for _, p := range prefixes {
			want := false
			for _, s := range all[i : j+1] {
				if s.HasPrefix(p) {
					want = true
					break
				}
			}
			if got := r.ContainsPrefix(p); got != want {
				t.Fatalf("region %v ContainsPrefix(%q) = %v, want %v", r, p, got, want)
			}
		}
	}
}

func TestContainsPrefixLongerThanK(t *testing.T) {
	r := Region{Low: "010", High: "021"}
	if !r.ContainsPrefix("0121") { // truncates to 012 ∈ region
		t.Error("long prefix truncating into region should match")
	}
	if r.ContainsPrefix("2101") {
		t.Error("long prefix truncating outside region should not match")
	}
}

func TestSplitByFirstSymbol(t *testing.T) {
	tests := []struct {
		low, high string
		wantParts int
	}{
		{"010", "021", 1},
		{"012", "121", 2},
		{"010", "212", 3},
		{"102", "201", 2},
	}
	for _, tt := range tests {
		r := Region{Low: Str(tt.low), High: Str(tt.high)}
		parts := r.SplitByFirstSymbol()
		if len(parts) != tt.wantParts {
			t.Errorf("%v split into %d parts, want %d", r, len(parts), tt.wantParts)
			continue
		}
		// Parts must partition the region: equal total size, common first
		// symbols, contiguous coverage.
		var total uint64
		for pi, p := range parts {
			if p.Low[0] != p.High[0] {
				t.Errorf("%v part %v lacks common first symbol", r, p)
			}
			if p.Low > p.High {
				t.Errorf("%v part %v inverted", r, p)
			}
			total += p.Size()
			if pi > 0 {
				prevHigh := parts[pi-1].High
				succ, ok := Succ(prevHigh)
				if !ok || succ != p.Low {
					t.Errorf("%v parts not contiguous: %q then %q", r, prevHigh, p.Low)
				}
			}
		}
		if total != r.Size() {
			t.Errorf("%v parts cover %d strings, want %d", r, total, r.Size())
		}
		if parts[0].Low != r.Low || parts[len(parts)-1].High != r.High {
			t.Errorf("%v parts do not span the region: %v", r, parts)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Region{Low: "0101", High: "0212"}
	b := Region{Low: "0120", High: "1021"}
	got, ok := a.Intersect(b)
	if !ok || got.Low != "0120" || got.High != "0212" {
		t.Fatalf("Intersect = %v/%v", got, ok)
	}
	c := Region{Low: "2010", High: "2121"}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint regions intersected")
	}
}

// Property: every string a region claims to contain has the region's common
// prefix.
func TestCommonPrefixCoversQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(aSeed, bSeed uint32) bool {
		const k = 10
		ra := uint64(aSeed) % SpaceSize(k)
		rb := uint64(bSeed) % SpaceSize(k)
		if ra > rb {
			ra, rb = rb, ra
		}
		low, err1 := FromRank(ra, k)
		high, err2 := FromRank(rb, k)
		if err1 != nil || err2 != nil {
			return false
		}
		r := Region{Low: low, High: high}
		com := CommonPrefix(r.Low, r.High)
		// Sample a few members via rank interpolation.
		for i := 0; i < 5; i++ {
			mid, err := FromRank(ra+uint64(rng.Int63n(int64(rb-ra+1))), k)
			if err != nil || !mid.HasPrefix(com) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: SplitByFirstSymbol subregions tile the region exactly.
func TestSplitTilesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(aSeed, bSeed uint32) bool {
		const k = 9
		ra := uint64(aSeed) % SpaceSize(k)
		rb := uint64(bSeed) % SpaceSize(k)
		if ra > rb {
			ra, rb = rb, ra
		}
		low, _ := FromRank(ra, k)
		high, _ := FromRank(rb, k)
		r := Region{Low: low, High: high}
		var total uint64
		for _, p := range r.SplitByFirstSymbol() {
			if p.Low[0] != p.High[0] || p.Low > p.High {
				return false
			}
			total += p.Size()
		}
		return total == r.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// containsPrefixRef is ContainsPrefix by definition — the largest string
// with prefix p reaches Low and the smallest stays within High — kept as
// the reference the prefix-comparison implementation is checked against.
func containsPrefixRef(r Region, p Str) bool {
	k := r.K()
	if len(p) >= k {
		q := p[:k]
		return r.Low <= q && q <= r.High
	}
	return MaxExtend(p, k) >= r.Low && MinExtend(p, k) <= r.High
}

// fuzzRegionAndPrefix decodes raw fuzz inputs into a valid region of length
// k ∈ [1, 60] and a valid prefix of length 0..k+2.
func fuzzRegionAndPrefix(lowRank, highRank, pRank uint64, kRaw, plenRaw uint8) (Region, Str) {
	k := 1 + int(kRaw)%(MaxRankLen-2)
	plen := int(plenRaw) % (k + 3)
	str := func(rank uint64, n int) Str {
		s, err := FromRank(rank%SpaceSize(n), n)
		if err != nil {
			panic(err) // unreachable: rank reduced into range
		}
		return s
	}
	low, high := str(lowRank, k), str(highRank, k)
	if low > high {
		low, high = high, low
	}
	var p Str
	if plen > 0 {
		p = str(pRank, plen)
	}
	return Region{Low: low, High: high}, p
}

func FuzzContainsPrefix(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint64(40), uint64(2), uint8(5), uint8(2))
	f.Add(uint64(1)<<40, uint64(1)<<41, uint64(12345), uint8(31), uint8(33))
	f.Add(^uint64(0), uint64(3), uint64(99), uint8(59), uint8(61))
	f.Fuzz(func(t *testing.T, lowRank, highRank, pRank uint64, kRaw, plenRaw uint8) {
		r, p := fuzzRegionAndPrefix(lowRank, highRank, pRank, kRaw, plenRaw)
		if got, want := r.ContainsPrefix(p), containsPrefixRef(r, p); got != want {
			t.Fatalf("%v ContainsPrefix(%q) = %v, definition says %v", r, p, got, want)
		}
	})
}

// ContainsPrefix runs per candidate child per hop of every descent; it must
// not allocate.
func TestContainsPrefixAllocFree(t *testing.T) {
	r := Region{Low: MinExtend("0120", 32), High: MaxExtend("0121", 32)}
	for _, p := range []Str{"", "01", "0120", "0121021", MaxExtend("0121", 34)} {
		if n := testing.AllocsPerRun(100, func() { sinkBool = r.ContainsPrefix(p) }); n != 0 {
			t.Errorf("ContainsPrefix(%q) allocates %v times", p, n)
		}
	}
}

var (
	sinkBool    bool
	sinkRegions []Region
)

func BenchmarkContainsPrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const k = 32
	type probe struct {
		r Region
		p Str
	}
	probes := make([]probe, 1024)
	for i := range probes {
		r, p := fuzzRegionAndPrefix(rng.Uint64(), rng.Uint64(), rng.Uint64(), k-1, uint8(rng.Intn(k)))
		probes[i] = probe{r, p}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &probes[i%len(probes)]
		sinkBool = pr.r.ContainsPrefix(pr.p)
	}
}

// BenchmarkSpanContainsPrefix is BenchmarkContainsPrefix's probes in ranks:
// the forwarding test the descent runs, against a prefix's rank and one of
// its symbols.
func BenchmarkSpanContainsPrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const k = 32
	type probe struct {
		s  Span
		id Str
		r  uint64
	}
	probes := make([]probe, 1024)
	for i := range probes {
		r, p := fuzzRegionAndPrefix(rng.Uint64(), rng.Uint64(), rng.Uint64(), k-1, uint8(1+rng.Intn(k)))
		probes[i] = probe{Span{Rank(r.Low), Rank(r.High)}, p, Rank(p)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &probes[i%len(probes)]
		sinkBool = pr.s.ContainsPrefix(k, pr.id, pr.r, 0)
	}
}

func BenchmarkSplitByFirstSymbol(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	regions := make([]Region, 1024)
	for i := range regions {
		regions[i], _ = fuzzRegionAndPrefix(rng.Uint64(), rng.Uint64(), 0, 31, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRegions = regions[i%len(regions)].SplitByFirstSymbol()
	}
}
