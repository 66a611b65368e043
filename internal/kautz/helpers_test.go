package kautz

import "fmt"

// Helpers only tests call: the static Kautz graph's neighbors, the
// predecessor beside Succ, the panicking and the checked string builders,
// the symbol test they share, the prefix relation between two strings and the
// whole space in order.

// MustParse is Parse for tests; it panics on invalid input.
func MustParse(s string) Str {
	ks, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return ks
}

// Append returns s extended by symbol c, or an error if the extension is not
// a Kautz string.
func (s Str) Append(c byte) (Str, error) {
	if !s.CanAppend(c) {
		return "", fmt.Errorf("%w: cannot append %q to %q", ErrInvalid, string(c), s)
	}
	return s + Str(c), nil
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

// CanAppend reports whether symbol c may legally follow s.
func (s Str) CanAppend(c byte) bool {
	if c < '0' || c > '2' {
		return false
	}
	return len(s) == 0 || s[len(s)-1] != c
}

// Enumerate returns all Kautz strings of length k in ascending order, for
// small k.
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
