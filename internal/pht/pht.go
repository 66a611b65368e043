// Package pht implements a Prefix Hash Tree (Chawathe et al., "A Case Study
// in Building Layered DHT Applications", SIGCOMM 2005) over the FISSIONE
// DHT — the general range-query baseline the Armada paper cites as PHT.
//
// A PHT is a binary trie over D-bit keys whose nodes live in the DHT: node
// label ℓ (a bit-string prefix) is stored at the peer owning
// Kautz_hash("pht:"+ℓ). Every node access therefore costs one DHT routing of
// O(log N) hops, which is what makes PHT's range queries O(b·log N) — the
// paper's Table 1 row — rather than delay-bounded.
//
// This implementation charges the full routing cost of every node access
// through the Armada engine's exact-match lookup while keeping node payloads
// in process (the DHT stores opaque blobs; serializing them would not change
// any counted metric). Lookups binary-search the prefix length; range
// queries locate the query's longest-common-prefix node and then fan out
// level by level, charging each level the maximum routing delay among its
// node accesses (the client fetches a level's children in parallel).
package pht

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"armada/internal/core"
	"armada/internal/kautz"
)

// Errors returned by the tree.
var (
	ErrBadBits  = errors.New("pht: bits must be in [1, 32]")
	ErrBadBlock = errors.New("pht: leaf capacity must be positive")
	ErrBadSpace = errors.New("pht: attribute space must have Low < High")
	ErrBadRange = errors.New("pht: query low bound above high bound")
)

// Key is a discretized attribute value.
type Key struct {
	Name  string
	Value float64
}

// node is one trie node; leaves hold keys.
type node struct {
	leaf bool
	keys []Key
}

// Tree is a PHT over a single numeric attribute.
type Tree struct {
	eng   *core.Engine
	bits  int
	block int
	low   float64
	high  float64
	nodes map[string]*node
	rng   *rand.Rand
}

// New creates an empty PHT over eng's network for values in [low, high],
// with D-bit keys and the given leaf capacity.
func New(eng *core.Engine, bits, block int, low, high float64, seed int64) (*Tree, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("%w: %d", ErrBadBits, bits)
	}
	if block < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadBlock, block)
	}
	if !(low < high) {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadSpace, low, high)
	}
	t := &Tree{
		eng:   eng,
		bits:  bits,
		block: block,
		low:   low,
		high:  high,
		nodes: map[string]*node{"": {leaf: true}},
		rng:   rand.New(rand.NewSource(seed)),
	}
	return t, nil
}

// Stats accumulate the DHT cost of one PHT operation.
type Stats struct {
	// Delay is the hop count on the operation's critical path: sequential
	// probes add up; a level of parallel child fetches contributes its
	// maximum.
	Delay int
	// Messages is the total hops across all DHT routings.
	Messages int
	// Lookups is the number of DHT node accesses.
	Lookups int
}

// keyOf discretizes a value to bits resolution.
func (t *Tree) keyOf(v float64) uint32 {
	f := (v - t.low) / (t.high - t.low)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	max := uint64(1)<<uint(t.bits) - 1
	return uint32(f * float64(max))
}

// prefixOf returns the length-l bit-prefix of key as a string.
func (t *Tree) prefixOf(key uint32, l int) string {
	var b strings.Builder
	b.Grow(l)
	for i := 0; i < l; i++ {
		if key&(1<<uint(t.bits-1-i)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// access charges one DHT routing to the node labelled ℓ from a random peer
// (the querying client's resolver) and returns the node, creating it if
// requested.
func (t *Tree) access(label string, create bool, stats *Stats) (*node, int) {
	issuer := t.eng.Network().PeerIDAt(t.rng.Intn(t.eng.Network().Size()))
	oid := kautz.Hash("pht:"+label, t.eng.Network().K())
	res, err := t.eng.Lookup(context.Background(), issuer, oid)
	hops := 0
	if err == nil {
		hops = res.Stats.Delay
	}
	stats.Messages += hops
	stats.Lookups++
	nd, ok := t.nodes[label]
	if !ok && create {
		nd = &node{leaf: true}
		t.nodes[label] = nd
	}
	return nd, hops
}

// Insert adds a key, splitting overflowing leaves, and returns the DHT cost.
func (t *Tree) Insert(name string, value float64) Stats {
	var stats Stats
	key := t.keyOf(value)
	label, hops := t.lookupLeaf(key, &stats)
	stats.Delay += hops

	nd := t.nodes[label]
	nd.keys = append(nd.keys, Key{Name: name, Value: value})
	for len(nd.keys) > t.block && len(label) < t.bits {
		// Split: redistribute the keys one level down.
		nd.leaf = false
		keys := nd.keys
		nd.keys = nil
		left, leftHops := t.access(label+"0", true, &stats)
		right, rightHops := t.access(label+"1", true, &stats)
		stats.Delay += max(leftHops, rightHops)
		left.leaf, right.leaf = true, true
		for _, k := range keys {
			if t.prefixOf(t.keyOf(k.Value), len(label)+1)[len(label)] == '0' {
				left.keys = append(left.keys, k)
			} else {
				right.keys = append(right.keys, k)
			}
		}
		if len(left.keys) > t.block {
			label, nd = label+"0", left
		} else if len(right.keys) > t.block {
			label, nd = label+"1", right
		} else {
			break
		}
	}
	return stats
}

// lookupLeaf binary-searches the prefix length holding key's leaf,
// accumulating DHT costs, and returns the leaf's label and the critical-path
// hops of the search.
func (t *Tree) lookupLeaf(key uint32, stats *Stats) (string, int) {
	lo, hi := 0, t.bits
	pathHops := 0
	best := ""
	for lo <= hi {
		mid := (lo + hi) / 2
		label := t.prefixOf(key, mid)
		nd, hops := t.access(label, false, stats)
		pathHops += hops
		switch {
		case nd == nil:
			hi = mid - 1
		case nd.leaf:
			return label, pathHops
		default:
			best = label
			lo = mid + 1
		}
	}
	// The trie always has a leaf on every root-to-leaf path; fall back to
	// walking down from the deepest internal node seen.
	label := best
	for {
		nd, hops := t.access(label, false, stats)
		pathHops += hops
		if nd == nil {
			t.nodes[label] = &node{leaf: true}
			return label, pathHops
		}
		if nd.leaf {
			return label, pathHops
		}
		label = label + string('0'+byte((key>>uint(t.bits-1-len(label)))&1))
	}
}

// Match is one object found by a range query.
type Match struct {
	Name  string
	Value float64
}

// RangeResult is the outcome of a PHT range query.
type RangeResult struct {
	Matches []Match
	Stats   Stats
}

// RangeQuery finds all keys with values in [lo, hi]. It locates the node of
// the bounds' longest common prefix, then descends the trie level by level,
// pruning subtrees whose key interval misses the query.
func (t *Tree) RangeQuery(lo, hi float64) (*RangeResult, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadRange, lo, hi)
	}
	var stats Stats
	kLo, kHi := t.keyOf(lo), t.keyOf(hi)
	lcp := commonPrefixLen(t.prefixOf(kLo, t.bits), t.prefixOf(kHi, t.bits))

	// Locate the shallowest existing node on the lcp path (costs a binary
	// search of DHT lookups on the critical path).
	start := ""
	pathHops := 0
	for l := lcp; l >= 0; l-- {
		label := t.prefixOf(kLo, l)
		nd, hops := t.access(label, false, &stats)
		pathHops += hops
		if nd != nil {
			start = label
			break
		}
	}
	stats.Delay += pathHops

	res := &RangeResult{}
	level := []string{start}
	for len(level) > 0 {
		var next []string
		levelMax := 0
		for _, label := range level {
			nd, hops := t.access(label, false, &stats)
			if hops > levelMax {
				levelMax = hops
			}
			if nd == nil {
				continue
			}
			if nd.leaf {
				for _, k := range nd.keys {
					if k.Value >= lo && k.Value <= hi {
						res.Matches = append(res.Matches, Match{Name: k.Name, Value: k.Value})
					}
				}
				continue
			}
			for _, c := range []string{label + "0", label + "1"} {
				if t.prefixIntersects(c, kLo, kHi) {
					next = append(next, c)
				}
			}
		}
		stats.Delay += levelMax
		level = next
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].Value != res.Matches[j].Value {
			return res.Matches[i].Value < res.Matches[j].Value
		}
		return res.Matches[i].Name < res.Matches[j].Name
	})
	res.Stats = stats
	return res, nil
}

// prefixIntersects reports whether the key interval of the trie node
// labelled p intersects [kLo, kHi].
func (t *Tree) prefixIntersects(p string, kLo, kHi uint32) bool {
	var lo uint32
	for i := 0; i < len(p); i++ {
		if p[i] == '1' {
			lo |= 1 << uint(t.bits-1-i)
		}
	}
	hi := lo
	for i := len(p); i < t.bits; i++ {
		hi |= 1 << uint(t.bits-1-i)
	}
	return lo <= kHi && kLo <= hi
}

// NodeCount returns the number of trie nodes (a size diagnostic).
func (t *Tree) NodeCount() int { return len(t.nodes) }

func commonPrefixLen(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
