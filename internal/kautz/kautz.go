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
// maximal completions), ranking (string ↔ dense index), lexicographic
// regions ⟨Low, High⟩ with prefix-intersection predicates, the static Kautz
// graph adjacency, and Kautz_hash, the uniform naming function used for
// exact-match publishing.
package kautz

import (
	"errors"
	"fmt"
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

// MustParse is Parse for tests and package literals; it panics on invalid
// input.
func MustParse(s string) Str {
	ks, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return ks
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

// Len returns the number of symbols in s.
func (s Str) Len() int { return len(s) }

// At returns the symbol at position i as a byte in {'0','1','2'}.
func (s Str) At(i int) byte { return s[i] }

// HasPrefix reports whether p is a prefix of s.
func (s Str) HasPrefix(p Str) bool { return strings.HasPrefix(string(s), string(p)) }

// HasSuffix reports whether p is a suffix of s.
func (s Str) HasSuffix(p Str) bool { return strings.HasSuffix(string(s), string(p)) }

// PrefixComparable reports whether s is a prefix of t or t is a prefix of s.
// Two peers' identifiers are never prefix-comparable (the PeerID set is a
// prefix-free cover of the namespace), but a PeerID and an ObjectID are
// exactly when the peer owns the object.
func PrefixComparable(s, t Str) bool {
	if len(s) <= len(t) {
		return t.HasPrefix(s)
	}
	return s.HasPrefix(t)
}

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

// CanAppend reports whether symbol c may legally follow s.
func (s Str) CanAppend(c byte) bool {
	if c < '0' || c > '2' {
		return false
	}
	return len(s) == 0 || s[len(s)-1] != c
}

// Append returns s extended by symbol c, or an error if the extension is not
// a Kautz string.
func (s Str) Append(c byte) (Str, error) {
	if !s.CanAppend(c) {
		return "", fmt.Errorf("%w: cannot append %q to %q", ErrInvalid, string(c), s)
	}
	return s + Str(c), nil
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

// Pred returns the lexicographic predecessor of s within
// KautzSpace(2,len(s)). The second result is false when s is the minimum.
func Pred(s Str) (Str, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		var prev byte
		if i > 0 {
			prev = b[i-1]
		}
		cands := nextSymbols(prev)
		for j := len(cands) - 1; j >= 0; j-- {
			if cands[j] < b[i] {
				head := Str(b[:i]) + Str(cands[j])
				return MaxExtend(head, len(s)), true
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
	r, free := Rank(p), uint(k-len(p))
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
	b := make([]byte, k)
	b[0] = byte('0' + r>>uint(k-1))
	for i := 1; i < k; i++ {
		bit := (r >> uint(k-1-i)) & 1
		b[i] = nextSymbols(b[i-1])[bit]
	}
	return Str(b), nil
}

// Enumerate returns all Kautz strings of length k in ascending order. It is
// intended for tests and small k.
func Enumerate(k int) []Str {
	n := SpaceSize(k)
	out := make([]Str, 0, n)
	for r := uint64(0); r < n; r++ {
		s, err := FromRank(r, k)
		if err != nil {
			panic(err) // unreachable: r < SpaceSize(k)
		}
		out = append(out, s)
	}
	return out
}

// Random returns a uniformly random Kautz string of length k drawn from rng.
func Random(rng *rand.Rand, k int) Str {
	s, err := FromRank(uint64(rng.Int63n(int64(SpaceSize(k)))), k)
	if err != nil {
		panic(err) // unreachable: rank drawn in range
	}
	return s
}

// OutNeighbors returns the out-neighbors of node s in the static Kautz graph
// K(2,len(s)): the nodes s[1:]+α for each symbol α that may follow s's last
// symbol.
func OutNeighbors(s Str) []Str {
	if len(s) == 0 {
		return nil
	}
	tail := s.Drop(1)
	cands := nextSymbols(s[len(s)-1])
	out := make([]Str, 0, len(cands))
	for _, c := range cands {
		out = append(out, tail+Str(c))
	}
	return out
}

// InNeighbors returns the in-neighbors of node s in the static Kautz graph
// K(2,len(s)): the nodes α+s[:len(s)-1] for each symbol α ≠ s[0].
func InNeighbors(s Str) []Str {
	if len(s) == 0 {
		return nil
	}
	head := s[:len(s)-1]
	var in []Str
	for _, c := range []byte(Alphabet) {
		if c == s[0] {
			continue
		}
		in = append(in, Str(c)+head)
	}
	return in
}

// CommonPrefix returns the longest common prefix of a and b.
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
