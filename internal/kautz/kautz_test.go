package kautz

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestValid(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{"", true},
		{"0", true},
		{"1", true},
		{"2", true},
		{"01", true},
		{"010", true},
		{"012", true},
		{"0120", true},
		{"210210", true},
		{"00", false},
		{"011", false},
		{"0110", false},
		{"3", false},
		{"0a2", false},
		{"01 ", false},
		{"102201", false},
	}
	for _, tt := range tests {
		if got := Valid(Str(tt.give)); got != tt.want {
			t.Errorf("Valid(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestParse(t *testing.T) {
	if _, err := Parse("0101"); err != nil {
		t.Fatalf("Parse(0101) error: %v", err)
	}
	if _, err := Parse("0110"); err == nil {
		t.Fatal("Parse(0110) should fail")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on invalid input did not panic")
		}
	}()
	MustParse("22")
}

func TestSpaceSize(t *testing.T) {
	tests := []struct {
		k    int
		want uint64
	}{
		{1, 3}, {2, 6}, {3, 12}, {4, 24}, {10, 1536},
	}
	for _, tt := range tests {
		if got := SpaceSize(tt.k); got != tt.want {
			t.Errorf("SpaceSize(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestEnumerateSortedValidComplete(t *testing.T) {
	for k := 1; k <= 7; k++ {
		all := Enumerate(k)
		if uint64(len(all)) != SpaceSize(k) {
			t.Fatalf("k=%d: %d strings, want %d", k, len(all), SpaceSize(k))
		}
		for i, s := range all {
			if !Valid(s) {
				t.Fatalf("k=%d: invalid string %q in enumeration", k, s)
			}
			if len(s) != k {
				t.Fatalf("k=%d: wrong length %q", k, s)
			}
			if i > 0 && all[i-1] >= s {
				t.Fatalf("k=%d: enumeration not strictly ascending at %d: %q ≥ %q", k, i, all[i-1], s)
			}
		}
	}
}

// TestRankFromRankRoundTrip holds FromRank to Rank, which reads a string
// symbol by symbol: every rank up to length 7, then the ends and random
// ranks at every length to MaxRankLen, each a valid string that ranks back
// to r — and PutRank writes nothing past dst[:k].
func TestRankFromRankRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= MaxRankLen; k++ {
		ranks := []uint64{0, SpaceSize(k) - 1, SpaceSize(k) / 3, 2 * SpaceSize(k) / 3}
		for r := uint64(0); r < 300; r++ {
			if k <= 7 {
				ranks = append(ranks, r%SpaceSize(k))
			} else {
				ranks = append(ranks, rng.Uint64()%SpaceSize(k))
			}
		}
		for _, r := range ranks {
			s, err := FromRank(r, k)
			if err != nil {
				t.Fatalf("FromRank(%d,%d): %v", r, k, err)
			}
			if got := Rank(s); got != r || !Valid(s) || len(s) != k {
				t.Fatalf("FromRank(%d,%d) = %q, of rank %d", r, k, s, got)
			}
			var dst [MaxRankLen]byte
			copy(dst[:], strings.Repeat("x", MaxRankLen))
			PutRank(&dst, r, k)
			if string(dst[:]) != string(s)+strings.Repeat("x", MaxRankLen-k) {
				t.Fatalf("PutRank(%d,%d) wrote %q", r, k, dst)
			}
		}
	}
}

func TestFromRankErrors(t *testing.T) {
	if _, err := FromRank(0, 0); err == nil {
		t.Error("FromRank(0,0) should fail")
	}
	if _, err := FromRank(SpaceSize(4), 4); err == nil {
		t.Error("FromRank out of range should fail")
	}
	if _, err := FromRank(0, MaxRankLen+1); err == nil {
		t.Error("FromRank beyond MaxRankLen should fail")
	}
}

func TestSuccPredExhaustive(t *testing.T) {
	all := Enumerate(5)
	for i, s := range all {
		next, ok := Succ(s)
		if i == len(all)-1 {
			if ok {
				t.Fatalf("Succ(max) = %q, want none", next)
			}
		} else if !ok || next != all[i+1] {
			t.Fatalf("Succ(%q) = %q/%v, want %q", s, next, ok, all[i+1])
		}
		prev, ok := Pred(s)
		if i == 0 {
			if ok {
				t.Fatalf("Pred(min) = %q, want none", prev)
			}
		} else if !ok || prev != all[i-1] {
			t.Fatalf("Pred(%q) = %q/%v, want %q", s, prev, ok, all[i-1])
		}
	}
}

func TestMinMaxExtend(t *testing.T) {
	tests := []struct {
		prefix  string
		k       int
		wantMin string
		wantMax string
	}{
		{"", 3, "010", "212"},
		{"0", 3, "010", "021"},
		{"1", 3, "101", "121"},
		{"2", 3, "201", "212"},
		{"01", 4, "0101", "0121"},
		{"02", 4, "0201", "0212"},
		{"0120", 4, "0120", "0120"},
	}
	for _, tt := range tests {
		if got := MinExtend(Str(tt.prefix), tt.k); got != Str(tt.wantMin) {
			t.Errorf("MinExtend(%q,%d) = %q, want %q", tt.prefix, tt.k, got, tt.wantMin)
		}
		if got := MaxExtend(Str(tt.prefix), tt.k); got != Str(tt.wantMax) {
			t.Errorf("MaxExtend(%q,%d) = %q, want %q", tt.prefix, tt.k, got, tt.wantMax)
		}
	}
}

// MinExtend/MaxExtend must bound exactly the set of length-k strings with the
// given prefix.
func TestExtendBoundsExhaustive(t *testing.T) {
	const k = 6
	all := Enumerate(k)
	prefixes := []Str{"0", "2", "01", "21", "010", "2102", "01210"}
	for _, p := range prefixes {
		lo, hi := MinExtend(p, k), MaxExtend(p, k)
		for _, s := range all {
			inBounds := lo <= s && s <= hi
			if inBounds != s.HasPrefix(p) {
				t.Fatalf("prefix %q: string %q bounds=%v prefix=%v", p, s, inBounds, s.HasPrefix(p))
			}
		}
	}
}

func TestDropAppendConcat(t *testing.T) {
	s := MustParse("01201")
	if got := s.Drop(2); got != "201" {
		t.Errorf("Drop(2) = %q", got)
	}
	if got := s.Drop(0); got != s {
		t.Errorf("Drop(0) = %q", got)
	}
	if got := s.Drop(9); got != "" {
		t.Errorf("Drop(9) = %q", got)
	}
	if _, err := s.Append('1'); err == nil {
		t.Error("Append equal symbol should fail")
	}
	ext, err := s.Append('2')
	if err != nil || ext != "012012" {
		t.Errorf("Append('2') = %q, %v", ext, err)
	}
	if _, err := Concat("012", "20"); err == nil {
		t.Error("Concat with equal junction should fail")
	}
	joined, err := Concat("012", "02")
	if err != nil || joined != "01202" {
		t.Errorf("Concat = %q, %v", joined, err)
	}
	if joined, err := Concat("", "01"); err != nil || joined != "01" {
		t.Errorf("Concat empty = %q, %v", joined, err)
	}
}

func TestOutNeighborsStatic(t *testing.T) {
	// Figure 1 of the paper: node 012 in K(2,3) has out-edges to 120, 121.
	got := OutNeighbors(MustParse("012"))
	want := []Str{"120", "121"}
	if len(got) != len(want) {
		t.Fatalf("OutNeighbors(012) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutNeighbors(012) = %v, want %v", got, want)
		}
	}
}

func TestInOutNeighborsConsistent(t *testing.T) {
	for _, s := range Enumerate(4) {
		for _, o := range OutNeighbors(s) {
			if !Valid(o) {
				t.Fatalf("OutNeighbors(%q) yields invalid %q", s, o)
			}
			found := false
			for _, back := range InNeighbors(o) {
				if back == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("%q not an in-neighbor of its out-neighbor %q", s, o)
			}
		}
		if got := len(OutNeighbors(s)); got != 2 {
			t.Fatalf("degree of %q = %d, want 2", s, got)
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	tests := []struct {
		a, b, want string
	}{
		{"0120", "0202", "0"},
		{"0120", "0121", "012"},
		{"0120", "0120", "0120"},
		{"0120", "1020", ""},
		{"", "010", ""},
	}
	for _, tt := range tests {
		if got := CommonPrefix(Str(tt.a), Str(tt.b)); got != Str(tt.want) {
			t.Errorf("CommonPrefix(%q,%q) = %q, want %q", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestOverlapSuffixPrefix(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"212", "0120", 0},
		{"212", "120", 2},  // suffix "12" = prefix "12"
		{"212", "2120", 3}, // whole of a
		{"0101", "0120", 2},
		{"0101", "1012", 3},
		{"", "012", 0},
		{"012", "", 0},
	}
	for _, tt := range tests {
		if got := OverlapSuffixPrefix(Str(tt.a), Str(tt.b)); got != tt.want {
			t.Errorf("OverlapSuffixPrefix(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPrefixComparable(t *testing.T) {
	if !PrefixComparable("01", "0120") || !PrefixComparable("0120", "01") {
		t.Error("prefix pairs should be comparable")
	}
	if PrefixComparable("012", "010") {
		t.Error("diverging strings should not be comparable")
	}
	if !PrefixComparable("", "2") {
		t.Error("empty string is a prefix of everything")
	}
}

func TestHashDeterministicValidUniformish(t *testing.T) {
	const k = 20
	a, b := Hash("alpha", k), Hash("alpha", k)
	if a != b {
		t.Fatalf("Hash not deterministic: %q vs %q", a, b)
	}
	if !Valid(a) || len(a) != k {
		t.Fatalf("Hash output invalid: %q", a)
	}
	if Hash("alpha", k) == Hash("beta", k) {
		t.Fatal("distinct names should hash differently (overwhelmingly)")
	}
	// Rough uniformity: first-symbol counts over many names should all be
	// within a loose band of n/3.
	counts := map[byte]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[Hash(string(rune('a'+i%26))+string(rune('0'+i)), k)[0]]++
	}
	for sym, c := range counts {
		if c < n/3-n/10 || c > n/3+n/10 {
			t.Errorf("first symbol %q count %d far from uniform %d", sym, c, n/3)
		}
	}
}

func TestHashZeroLength(t *testing.T) {
	if got := Hash("x", 0); got != "" {
		t.Errorf("Hash(k=0) = %q, want empty", got)
	}
}

// Property: Rank is monotone with lexicographic order.
func TestRankMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(aSeed, bSeed uint32) bool {
		const k = 12
		a, erra := FromRank(uint64(aSeed)%SpaceSize(k), k)
		b, errb := FromRank(uint64(bSeed)%SpaceSize(k), k)
		if erra != nil || errb != nil {
			return false
		}
		return (a < b) == (Rank(a) < Rank(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Succ increases rank by exactly one.
func TestSuccRankQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed uint32) bool {
		const k = 10
		s, err := FromRank(uint64(seed)%(SpaceSize(k)-1), k)
		if err != nil {
			return false
		}
		next, ok := Succ(s)
		return ok && Valid(next) && Rank(next) == Rank(s)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: operations preserve validity.
func TestOpsPreserveValidityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed uint32, dropN uint8, extendTo uint8) bool {
		k := 4 + int(seed%12)
		s := Random(rng, k)
		if !Valid(s) {
			return false
		}
		d := s.Drop(int(dropN) % (k + 1))
		if !Valid(d) {
			return false
		}
		target := len(d) + int(extendTo%5)
		return Valid(MinExtend(d, target)) && Valid(MaxExtend(d, target))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRandomDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const k = 3
	counts := make(map[Str]int)
	const n = 12000
	for i := 0; i < n; i++ {
		counts[Random(rng, k)]++
	}
	if len(counts) != int(SpaceSize(k)) {
		t.Fatalf("Random covered %d/%d strings", len(counts), SpaceSize(k))
	}
	for s, c := range counts {
		if c < n/12/2 || c > n/12*2 {
			t.Errorf("Random(%q) count %d far from %d", s, c, n/12)
		}
	}
}

func TestSortOrderMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k = 9
	strs := make([]Str, 200)
	for i := range strs {
		strs[i] = Random(rng, k)
	}
	byString := append([]Str(nil), strs...)
	sort.Slice(byString, func(i, j int) bool { return byString[i] < byString[j] })
	byRank := append([]Str(nil), strs...)
	sort.Slice(byRank, func(i, j int) bool { return Rank(byRank[i]) < Rank(byRank[j]) })
	for i := range byString {
		if byString[i] != byRank[i] {
			t.Fatalf("order mismatch at %d: %q vs %q", i, byString[i], byRank[i])
		}
	}
}
