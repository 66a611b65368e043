package kautz

import "testing"

// CommonPrefix returns the longest common prefix of a and b — ComT, for a
// region's bounds. The descent computes it in ranks (Span.EntryHeight); this
// is the string definition FuzzRankGeometry holds that to.
func CommonPrefix(a, b Str) Str {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// OverlapSuffixPrefix returns the length of the longest suffix of a that is
// a prefix of b. This is the f = |ComS| quantity of the paper: the number of
// routing hops PIRA may skip because the issuer's identifier already ends
// with the targets' common prefix.
func OverlapSuffixPrefix(a, b Str) int {
	maxL := min(len(a), len(b))
	for l := maxL; l > 0; l-- {
		if a[len(a)-l:] == Str(b[:l]) {
			return l
		}
	}
	return 0
}

// clipRegionAfter is the string form of a keyset cursor's clip: the region
// shrunk to ⟨Succ(after), High⟩, and false when nothing remains.
func clipRegionAfter(r Region, after Str) (Region, bool) {
	if after < r.Low {
		return r, true
	}
	if after >= r.High {
		return Region{}, false
	}
	next, ok := Succ(after)
	if !ok {
		return Region{}, false
	}
	r.Low = next
	return r, true
}

// spanOf is a region's rank span.
func spanOf(r Region) Span { return Span{Lo: Rank(r.Low), Hi: Rank(r.High)} }

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
		com := CommonPrefix(r.Low, r.High)
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

// FuzzRankGeometry holds each rank helper the descent runs to the string code
// it replaced, at every k in [2, MaxRankLen], for identifiers of any length up
// to k and any height, the empty eventual prefix included:
//   - the forwarding test, Span.ContainsPrefix, is Region.ContainsPrefix of
//     the child's eventual prefix id.Drop(h), and the ranks MIRA's pruning
//     masks, PrefixBlock, are PrefixRanks of it;
//   - the split, Span.AppendSplitByFirstSymbol, is SplitByFirstSymbol;
//   - the entry height, Span.EntryHeight, is len(issuer) less the issuer's
//     overlap with each part's ComT;
//   - the cursor clip, Span.Past, is the Succ-based clipRegionAfter.
func FuzzRankGeometry(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), uint64(0), uint8(0), uint64(0), uint8(0), uint8(0), uint64(0))
	f.Add(uint8(30), uint64(12345), uint64(99999), uint64(77), uint8(12), uint64(5), uint8(9), uint8(3), uint64(50000))
	f.Fuzz(func(t *testing.T, kRaw uint8, lowRank, highRank, idRank uint64, idLenRaw uint8, issuerRank uint64, issuerLenRaw, hRaw uint8, cursorRank uint64) {
		k := 2 + int(kRaw)%(MaxRankLen-1)
		low, high := fuzzStr(lowRank, uint8(k-1)), fuzzStr(highRank, uint8(k-1))
		r := Region{Low: min(low, high), High: max(low, high)}
		s := spanOf(r)
		id, issuer := fuzzStr(idRank, idLenRaw%uint8(k)), fuzzStr(issuerRank, issuerLenRaw)
		h := int(hRaw) % (len(id) + 3)

		if got, want := s.ContainsPrefix(k, id, Rank(id), h), r.ContainsPrefix(id.Drop(h)); got != want {
			t.Fatalf("%v at k=%d: ContainsPrefix of %q from height %d = %v; the string test says %v", r, k, id, h, got, want)
		}
		if lo, hi := PrefixRanks(id.Drop(h), k); PrefixBlock(k, id, Rank(id), h) != (Span{Lo: lo, Hi: hi}) {
			t.Fatalf("k=%d: PrefixBlock of %q from height %d = %v; PrefixRanks says [%d, %d]", k, id, h, PrefixBlock(k, id, Rank(id), h), lo, hi)
		}

		parts := r.SplitByFirstSymbol()
		spans := s.AppendSplitByFirstSymbol(k, nil)
		if len(spans) != len(parts) {
			t.Fatalf("%v: %d rank parts, %d string parts", r, len(spans), len(parts))
		}
		for i, p := range parts {
			if spans[i] != spanOf(p) {
				t.Fatalf("%v: rank part %d = %v; string part %v ranks %v", r, i, spans[i], p, spanOf(p))
			}
		}
		for _, p := range append(parts, r) {
			want := len(issuer) - OverlapSuffixPrefix(issuer, CommonPrefix(p.Low, p.High))
			if got := spanOf(p).EntryHeight(k, issuer, Rank(issuer)); got != want {
				t.Fatalf("%v: EntryHeight from %q = %d, the string overlap says %d", p, issuer, got, want)
			}
		}

		cursor := fuzzStr(cursorRank, uint8(k-1))
		got, ok := s.Past(cursor)
		clipped, wantOK := clipRegionAfter(r, cursor)
		if ok != wantOK || ok && got != spanOf(clipped) {
			t.Fatalf("%v after %q: rank clip %v, %v; the Succ clip %v, %v", r, cursor, got, ok, clipped, wantOK)
		}
		if got, ok := s.Past(""); !ok || got != s {
			t.Fatalf("%v: the empty cursor clips it to %v, %v", r, got, ok)
		}
	})
}
