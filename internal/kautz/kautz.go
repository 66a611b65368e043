// Package kautz implements arithmetic on Kautz strings and the Kautz graph
// K(2,k), the namespace substrate of the FISSIONE DHT.
//
// A Kautz string of base d is a string over the alphabet {0, 1, ..., d} in
// which neighboring symbols differ. This package fixes d = 2 (alphabet
// {0,1,2}), the base used by FISSIONE and Armada. KautzSpace(2,k) is the set
// of all such strings of length k; it contains 3·2^(k-1) elements and is
// totally ordered by the usual lexicographic order, written ≼ in the paper.
//
// The package provides validation, ordering, prefix algebra (minimal and
// maximal completions), ranking (string ↔ dense index), lexicographic regions
// ⟨Low, High⟩ and their rank spans with prefix-intersection predicates, the
// static Kautz graph adjacency, and Kautz_hash, the uniform naming function
// used for exact-match publishing.
package kautz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Base is the Kautz base d. FISSIONE and Armada use d = 2, giving the
// three-symbol alphabet {0,1,2}.
const Base = 2

// Alphabet lists the valid symbols in ascending order.
const Alphabet = "012"

// MaxRankLen is the longest string length supported by Rank/FromRank
// (3·2^(k-1) must fit in uint64).
const MaxRankLen = 62

// Str is a Kautz string: a sequence of symbols '0','1','2' in which adjacent
// symbols differ. The zero value is the empty string, which is a valid
// prefix of every Kautz string. Comparison between equal-length strings with
// the built-in < operator coincides with the paper's ≼ order.
type Str string

// Errors returned by constructors and parsers in this package.
var (
	ErrInvalid  = errors.New("kautz: invalid Kautz string")
	ErrBadLen   = errors.New("kautz: bad length")
	ErrOverflow = errors.New("kautz: length exceeds rank arithmetic range")
)

// Parse validates s and returns it as a Str.
func Parse(s string) (Str, error) {
	if !Valid(Str(s)) {
		return "", fmt.Errorf("%w: %q", ErrInvalid, s)
	}
	return Str(s), nil
}

// Valid reports whether s is a well-formed Kautz string: every symbol is in
// {0,1,2} and no two adjacent symbols are equal. The empty string is valid.
func Valid(s Str) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '2' {
			return false
		}
		if i > 0 && s[i] == s[i-1] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of s.
func (s Str) HasPrefix(p Str) bool { return strings.HasPrefix(string(s), string(p)) }

// Drop returns s with its first n symbols removed. Dropping more symbols
// than s holds yields the empty string.
func (s Str) Drop(n int) Str {
	if n >= len(s) {
		return ""
	}
	if n <= 0 {
		return s
	}
	return s[n:]
}

// Concat joins s and t, returning an error when the junction would place two
// equal symbols side by side.
func Concat(s, t Str) (Str, error) {
	if len(s) > 0 && len(t) > 0 && s[len(s)-1] == t[0] {
		return "", fmt.Errorf("%w: junction %q|%q", ErrInvalid, s, t)
	}
	return s + t, nil
}

// nextTable[0] lists the symbols that may start a string and nextTable[1+i]
// those that may follow symbol '0'+i, ascending. Shared and read-only.
var nextTable = [4][]byte{{'0', '1', '2'}, {'1', '2'}, {'0', '2'}, {'0', '1'}}

// nextSymbols returns the symbols that may follow prev ('0','1','2', or 0
// meaning "start of string"), in ascending order. The slice is shared and
// must not be modified.
func nextSymbols(prev byte) []byte {
	switch {
	case prev == 0:
		return nextTable[0]
	case prev >= '0' && prev <= '2':
		return nextTable[1+prev-'0']
	}
	return nil
}

// Extensions returns the symbols that may legally extend s, in ascending
// order: all three symbols for the empty string, otherwise the two symbols
// different from s's last. The slice is shared and must not be modified.
func Extensions(s Str) []byte {
	return nextSymbols(lastOr0(s))
}

// lastOr0 returns the last symbol of s, or 0 for the empty string.
func lastOr0(s Str) byte {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// MinExtend returns the lexicographically smallest Kautz string of length k
// with prefix p. It panics if p is longer than k (callers must truncate).
func MinExtend(p Str, k int) Str {
	if len(p) > k {
		panic(fmt.Sprintf("kautz: MinExtend prefix %q longer than k=%d", p, k))
	}
	var b strings.Builder
	b.Grow(k)
	b.WriteString(string(p))
	prev := lastOr0(p)
	for i := len(p); i < k; i++ {
		c := nextSymbols(prev)[0]
		b.WriteByte(c)
		prev = c
	}
	return Str(b.String())
}

// MaxExtend returns the lexicographically largest Kautz string of length k
// with prefix p. It panics if p is longer than k.
func MaxExtend(p Str, k int) Str {
	if len(p) > k {
		panic(fmt.Sprintf("kautz: MaxExtend prefix %q longer than k=%d", p, k))
	}
	var b strings.Builder
	b.Grow(k)
	b.WriteString(string(p))
	prev := lastOr0(p)
	for i := len(p); i < k; i++ {
		cands := nextSymbols(prev)
		c := cands[len(cands)-1]
		b.WriteByte(c)
		prev = c
	}
	return Str(b.String())
}

// Succ returns the lexicographic successor of s within KautzSpace(2,len(s)).
// The second result is false when s is the maximum element.
func Succ(s Str) (Str, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		var prev byte
		if i > 0 {
			prev = b[i-1]
		}
		// Find the smallest allowed symbol strictly greater than b[i].
		for _, c := range nextSymbols(prev) {
			if c > b[i] {
				head := Str(b[:i]) + Str(c)
				return MinExtend(head, len(s)), true
			}
		}
	}
	return "", false
}

// SpaceSize returns |KautzSpace(2,k)| = 3·2^(k-1). k must be in [1,
// MaxRankLen].
func SpaceSize(k int) uint64 {
	if k < 1 || k > MaxRankLen {
		panic(fmt.Sprintf("kautz: SpaceSize k=%d out of range", k))
	}
	return 3 << uint(k-1)
}

// Rank returns the zero-based position of s in the lexicographic enumeration
// of KautzSpace(2,len(s)): the first symbol, then one bit per further symbol —
// set when it is the larger of the two that may follow its predecessor, which
// for symbols c after p is exactly 2c+p > 3. Equal-length strings order as
// their ranks do.
func Rank(s Str) uint64 {
	if len(s) == 0 || len(s) > MaxRankLen {
		panic(fmt.Sprintf("kautz: Rank on length %d", len(s)))
	}
	r := uint64(s[0] - '0')
	for i := 1; i < len(s); i++ {
		r <<= 1
		if 2*(s[i]-'0')+(s[i-1]-'0') > 3 {
			r |= 1
		}
	}
	return r
}

// PrefixRanks returns the ranks of the smallest and the largest string of
// length k with prefix p — Rank(MinExtend(p, k)) and Rank(MaxExtend(p, k)),
// without building either: the strings under a prefix are one aligned block
// of ranks. The empty prefix spans the whole space. It panics if p is longer
// than k or k exceeds MaxRankLen.
func PrefixRanks(p Str, k int) (lo, hi uint64) {
	if len(p) == 0 {
		return 0, SpaceSize(k) - 1
	}
	if len(p) > k || k > MaxRankLen {
		panic(fmt.Sprintf("kautz: PrefixRanks prefix %q at k=%d", p, k))
	}
	return BlockRanks(Rank(p), len(p), k)
}

// BlockRanks is PrefixRanks for the prefix of rank r and length l, with no
// check: the ranks at length k whose top l digits are r.
func BlockRanks(r uint64, l, k int) (lo, hi uint64) {
	free := uint(k - l)
	return r << free, (r+1)<<free - 1
}

// FromRank is the inverse of Rank: it returns the Kautz string of length k
// at position r in lexicographic order.
func FromRank(r uint64, k int) (Str, error) {
	if k < 1 || k > MaxRankLen {
		return "", fmt.Errorf("%w: k=%d", ErrBadLen, k)
	}
	if r >= SpaceSize(k) {
		return "", fmt.Errorf("%w: rank %d out of range for k=%d", ErrBadLen, r, k)
	}
	var b [MaxRankLen]byte
	PutRank(&b, r, k)
	return Str(b[:k]), nil
}

// PutRank is FromRank into the caller's array, with no check of r and k: it
// writes the string to dst[:k], every symbol at once. Bit j of r's lower
// k−1 picks symbol j among the two that may follow symbol j−1: a 0 the
// smaller (1 after 0, else 0), a 1 the larger (1 after 2, else 2). So a run
// of equal bits spells 0 1 0 … (0s) or 2 1 2 … (1s) from its start: symbol
// j is f or 2−f, f the parity of j's offset in its run. The first symbol is
// a run's start for its bit s₀>>1 when 0 or 2, and 1 is the end of one.
func PutRank(dst *[MaxRankLen]byte, r uint64, k int) {
	const odd = 0xaaaaaaaaaaaaaaaa
	all := uint64(1)<<k - 1
	s0 := r >> (k - 1)
	b := bits.Reverse64(r&(all>>1))>>(64-k) | s0>>1  // bit j is symbol j's, in string order
	cont := ^(b ^ b<<1) & (all - 1) &^ (s0 & 1 << 1) // j continues j−1's run
	// A 1 added at the second position of each run that starts at an odd
	// position carries through the run, so cont &^ the sum is the rest of
	// those runs; with their starts, 1 across every odd-started run, which
	// XOR odd turns into each offset's parity (0 at s₀, whose own low bit
	// comes in below).
	oddStarts := ^cont & all & odd
	f := (cont&^(cont+oddStarts<<1&cont) | oddStarts) ^ odd&all
	low, high := f|s0&1, b&^f
	for i := 0; i < k; i += 8 {
		w := 0x3030303030303030 + bytesOf(low>>i&0xff) + 2*bytesOf(high>>i&0xff)
		if k-i >= 8 {
			binary.LittleEndian.PutUint64(dst[i:], w)
			continue
		}
		for j := i; j < k; j++ {
			dst[j] = byte(w)
			w >>= 8
		}
	}
}

// bytesOf puts bit i of x (< 256) in byte i, as 0 or 1.
func bytesOf(x uint64) uint64 {
	return (x*0x0101010101010101&0x8040201008040201 + 0x7f7f7f7f7f7f7f7f) >> 7 & 0x0101010101010101
}

// Random returns a uniformly random Kautz string of length k drawn from rng.
func Random(rng *rand.Rand, k int) Str {
	s, err := FromRank(uint64(rng.Int63n(int64(SpaceSize(k)))), k)
	if err != nil {
		panic(err) // unreachable: rank drawn in range
	}
	return s
}
