package kautz

import (
	"slices"
	"testing"
)

// fuzzStr decodes raw fuzz inputs into a valid Kautz string of length
// k ∈ [1, MaxRankLen].
func fuzzStr(rank uint64, kRaw uint8) Str {
	k := 1 + int(kRaw)%MaxRankLen
	s, err := FromRank(rank%SpaceSize(k), k)
	if err != nil {
		panic(err) // unreachable: rank reduced into range
	}
	return s
}

// FuzzSucc checks Succ against the rank bijection: the successor of the
// string at rank r is the string at rank r+1, the maximum has none, and
// Pred undoes it. Cursor clipping and shortcut tiling step through the
// namespace with Succ.
func FuzzSucc(f *testing.F) {
	f.Add(uint64(0), uint8(0))
	f.Add(uint64(5), uint8(2))
	f.Fuzz(func(t *testing.T, rank uint64, kRaw uint8) {
		s := fuzzStr(rank, kRaw)
		k, r := len(s), Rank(s)
		got, ok := Succ(s)
		if r+1 == SpaceSize(k) {
			if ok {
				t.Fatalf("Succ(%q) = %q, but %q is the maximum of length %d", s, got, s, k)
			}
			return
		}
		want, err := FromRank(r+1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != want {
			t.Fatalf("Succ(%q) = %q, %v; rank %d+1 is %q", s, got, ok, r, want)
		}
		if back, ok := Pred(got); !ok || back != s {
			t.Fatalf("Pred(Succ(%q)) = %q, %v", s, back, ok)
		}
	})
}

// FuzzSplitByFirstSymbol checks the split PIRA starts from: one to three
// parts, each within one first symbol, ascending, disjoint and with no gap —
// each part starts at the successor of its predecessor's end — from the
// region's Low to its High, so their union is the region.
func FuzzSplitByFirstSymbol(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(12345), uint64(12399), uint8(59))
	f.Fuzz(func(t *testing.T, lowRank, highRank uint64, kRaw uint8) {
		r, _ := fuzzRegionAndPrefix(lowRank, highRank, 0, kRaw, 0)
		parts := r.SplitByFirstSymbol()
		if len(parts) < 1 || len(parts) > len(Alphabet) {
			t.Fatalf("%v split into %d parts", r, len(parts))
		}
		// The appending entry point: the same parts, behind what dst held, in
		// the caller's own array.
		var buf [1 + len(Alphabet)]Region
		buf[0] = Region{Low: "kept", High: "kept"}
		if got := r.AppendSplitByFirstSymbol(buf[:1]); !slices.Equal(got[1:], parts) || got[0] != buf[0] || &got[0] != &buf[0] {
			t.Fatalf("%v: AppendSplitByFirstSymbol = %v, SplitByFirstSymbol = %v", r, got, parts)
		}
		if parts[0].Low != r.Low || parts[len(parts)-1].High != r.High {
			t.Fatalf("%v split into %v: ends moved", r, parts)
		}
		for i, p := range parts {
			if p.K() != r.K() || !Valid(p.Low) || !Valid(p.High) || p.Low > p.High || p.Low[0] != p.High[0] {
				t.Fatalf("%v: part %d = %v is not a region within one first symbol", r, i, p)
			}
			if i > 0 {
				if next, ok := Succ(parts[i-1].High); !ok || next != p.Low || parts[i-1].High[0] >= p.Low[0] {
					t.Fatalf("%v: part %d = %v does not start where part %d = %v ends", r, i, p, i-1, parts[i-1])
				}
			}
		}
	})
}

// FuzzCommonPrefix checks the ComT of a region — the prefix whose overlap
// with the issuer's identifier sets how many hops a descent skips: it
// prefixes both bounds, is maximal, does not depend on argument order, also
// for bounds of unequal length, and every string of the region extends it.
func FuzzCommonPrefix(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(99), uint64(3), uint8(59), uint8(61))
	f.Fuzz(func(t *testing.T, aRank, bRank uint64, kaRaw, kbRaw uint8) {
		a, b := fuzzStr(aRank, kaRaw), fuzzStr(bRank, kbRaw)
		p := CommonPrefix(a, b)
		if !a.HasPrefix(p) || !b.HasPrefix(p) {
			t.Fatalf("CommonPrefix(%q, %q) = %q prefixes not both", a, b, p)
		}
		if n := len(p); n < len(a) && n < len(b) && a[n] == b[n] {
			t.Fatalf("CommonPrefix(%q, %q) = %q stops early", a, b, p)
		}
		if q := CommonPrefix(b, a); q != p {
			t.Fatalf("CommonPrefix(%q, %q) = %q but swapped %q", a, b, p, q)
		}
		// As a region's ComT (bounds of one length, ascending).
		k := min(len(a), len(b))
		r := Region{Low: min(a[:k], b[:k]), High: max(a[:k], b[:k])}
		com := r.CommonPrefix()
		if MinExtend(com, k) > r.Low || MaxExtend(com, k) < r.High || !r.ContainsPrefix(com) {
			t.Fatalf("%v: ComT %q does not cover the region", r, com)
		}
	})
}

// FuzzRankOrder checks what lets a store keep ObjectIDs as integers: for
// valid strings of one length, lexicographic order is rank order (and Rank
// undoes FromRank, which still reads the symbol table Rank no longer does),
// and the strings under any prefix of one are exactly the ranks PrefixRanks
// names — those of its minimal and maximal extension — at every length up to
// MaxRankLen, whose largest rank uses the top bit but one.
func FuzzRankOrder(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(12345), uint64(12399), uint8(31), uint8(7), uint8(61))
	f.Fuzz(func(t *testing.T, aRank, bRank uint64, kRaw, cutRaw, toRaw uint8) {
		a := fuzzStr(aRank, kRaw)
		k := len(a)
		b := fuzzStr(bRank, uint8(k-1))
		if Rank(a) != aRank%SpaceSize(k) || Rank(b) != bRank%SpaceSize(k) {
			t.Fatalf("Rank(%q) = %d, Rank(%q) = %d: not the ranks they were built from", a, Rank(a), b, Rank(b))
		}
		if (a < b) != (Rank(a) < Rank(b)) || (a == b) != (Rank(a) == Rank(b)) {
			t.Fatalf("%q vs %q order as strings but ranks %d vs %d do not", a, b, Rank(a), Rank(b))
		}
		p := a[:int(cutRaw)%(k+1)]
		to := len(p) + int(toRaw)%(MaxRankLen-len(p)+1)
		if to == 0 {
			to = 1
		}
		lo, hi := PrefixRanks(p, to)
		if wantLo, wantHi := Rank(MinExtend(p, to)), Rank(MaxExtend(p, to)); lo != wantLo || hi != wantHi {
			t.Fatalf("PrefixRanks(%q, %d) = %d, %d; its extensions rank %d, %d", p, to, lo, hi, wantLo, wantHi)
		}
	})
}
