package fissione

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"armada/internal/kautz"
)

// refCover is what the trie replaced, kept as the reference the trie is
// tested against: a name → slot map, every question answered by comparing
// strings.
type refCover map[kautz.Str]int32

// sorted returns the registered names ascending.
func (r refCover) sorted() []kautz.Str {
	names := make([]kautz.Str, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// put registers name unless it is no identifier or prefix-comparable with a
// registered one.
func (r refCover) put(name kautz.Str, slot int32) bool {
	if len(name) == 0 || !kautz.Valid(name) {
		return false
	}
	for have := range r {
		if kautz.PrefixComparable(have, name) {
			return false
		}
	}
	r[name] = slot
	return true
}

// under returns what appendUnder appends: the slot registered at or above
// name, or else every slot registered below it, ascending by name.
func (r refCover) under(name kautz.Str, skip int32) []int32 {
	var out []int32
	for _, have := range r.sorted() {
		if s := r[have]; s != skip && kautz.PrefixComparable(have, name) {
			out = append(out, s)
		}
	}
	return out
}

func (r refCover) owner(name kautz.Str) (int32, bool) {
	for have, s := range r {
		if name.HasPrefix(have) {
			return s, true
		}
	}
	return noSlot, false
}

func (r refCover) sibling(name kautz.Str) (int32, bool) {
	if _, ok := r[name]; !ok || len(name) < 2 {
		return noSlot, false
	}
	parent, last := name[:len(name)-1], name[len(name)-1]
	for _, c := range kautz.Extensions(parent) {
		if s, ok := r[parent+kautz.Str(c)]; ok && c != last {
			return s, true
		}
	}
	return noSlot, false
}

// innerLinked counts the inner nodes below the root the trie reaches from it.
func innerLinked(c *cover, cells []int32) (n int) {
	for _, v := range cells {
		if v > 0 {
			n += 1 + innerLinked(c, c.cells[v:v+2])
		}
	}
	return n
}

// checkAgainst compares everything the trie holds with the reference: the
// in-order walk, and that linked and released inner nodes are all there are,
// none of them childless.
func checkAgainst(t *testing.T, c *cover, ref refCover) {
	t.Helper()
	if got, want := c.appendUnder(nil, 0, "", noSlot), ref.under("", noSlot); !slices.Equal(got, want) {
		t.Fatalf("in-order walk = %v, reference holds %v (%v)", got, want, ref.sorted())
	}
	linked := innerLinked(c, c.cells[rootBase:rootBase+3])
	if total := (len(c.cells) - firstNode) / 2; linked+len(c.free) != total {
		t.Fatalf("%d inner nodes linked + %d released, but %d allocated", linked, len(c.free), total)
	}
	for base := firstNode; base < len(c.cells); base += 2 {
		if c.cells[base]|c.cells[base+1] == 0 && !slices.Contains(c.free, int32(base)) {
			t.Fatalf("inner node %d is childless and not released", base)
		}
	}
}

// coverSymbols is what a fuzzed name is spelled in: mostly symbols.
const coverSymbols = "012013\x00\xff"

// coverOps encodes operations the way FuzzCoverMatchesReference decodes
// them, for its seeds: "p:012" put, "d:" del, "g:" get and owner, "s:"
// sibling, "u:" appendUnder — "u2:01" under the lead symbol 2 (or 0).
func coverOps(ops ...string) (data []byte) {
	for _, o := range ops {
		verb, name, _ := strings.Cut(o, ":")
		first := map[byte]byte{'p': 0, 'd': 2, 'g': 3, 'u': 4, 's': 5}[verb[0]]
		if len(verb) > 1 {
			first = map[byte]byte{'0': 0x40 + 6, '2': 0xc0 + 4}[verb[1]]
		}
		data = append(data, first, byte(len(name))<<4)
		for _, c := range []byte(name) {
			data = append(data, byte(strings.IndexByte(coverSymbols, c)))
		}
	}
	return data
}

// FuzzCoverMatchesReference decodes its input into a sequence of cover
// operations over short names — mostly identifiers, some with bytes that are
// no symbol or repeat — and applies each to the trie and to the reference,
// which must agree on every answer and, after every step, on the whole
// content. No input may panic the walk.
func FuzzCoverMatchesReference(f *testing.F) {
	f.Add(coverOps("p:0", "p:1", "p:2", "u:", "d:1", "p:10", "p:12", "s:10", "u2:10", "u0:1"))
	f.Add(coverOps("p:01", "p:012", "p:0", "d:012", "d:01", "g:01", "p:02", "p:1", "p:2", "u:0", "u0:12", "u2:0"))
	f.Add(coverOps("p:0", "p:1", "p:2", "d:0", "p:010", "p:012", "p:02", "s:010", "s:02", "u2:0", "g:0103", "d:010", "d:012"))
	f.Add(coverOps("p:00", "p:3", "p:0\xff", "g:\x00", "d:", "s:", "u:\xff", "p:", "u0:0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c cover
		c.reset(0)
		ref := refCover{}
		for step := 0; len(data) >= 2; step++ {
			op, l := data[0]%6, int(data[1]>>4)%8
			lead, skip := byte(0), int32(data[1]&7)-1
			if data[0]&0x40 != 0 {
				lead = '0' + data[0]>>7<<1 // '0' or '2'
			}
			l = min(l, len(data)-2)
			name := make([]byte, l)
			for i, b := range data[2 : 2+l] {
				name[i] = coverSymbols[b%8]
			}
			data = data[2+l:]
			id := kautz.Str(name)
			switch op {
			case 0, 1:
				err := c.put(id, int32(step))
				if want := ref.put(id, int32(step)); (err == nil) != want || (err != nil && !errors.Is(err, ErrCorrupt)) {
					t.Fatalf("step %d: put(%q) = %v, reference accepted=%t (%v)", step, id, err, want, ref.sorted())
				}
			case 2:
				_, want := ref[id]
				delete(ref, id)
				if got := c.del(id); got != want {
					t.Fatalf("step %d: del(%q) = %t, want %t", step, id, got, want)
				}
			case 3:
				got, ok := c.get(id)
				if want, wok := ref[id]; ok != wok || (ok && got != want) {
					t.Fatalf("step %d: get(%q) = %d, %t; want %d, %t", step, id, got, ok, want, wok)
				}
				got, ok = c.owner(id)
				if want, wok := ref.owner(id); ok != wok || (ok && got != want) {
					t.Fatalf("step %d: owner(%q) = %d, %t; want %d, %t", step, id, got, ok, want, wok)
				}
				if len(id) > 0 && kautz.Valid(id) { // the same walk by the name's rank
					if byKey, kok := c.ownerKey(kautz.Rank(id), len(id)); kok != ok || (ok && byKey != got) {
						t.Fatalf("step %d: ownerKey(rank of %q) = %d, %t; owner = %d, %t", step, id, byKey, kok, got, ok)
					}
				}
			case 4:
				full := id
				if lead != 0 {
					full = kautz.Str(lead) + id
				}
				if got, want := c.appendUnder(nil, lead, id, skip), ref.under(full, skip); !slices.Equal(got, want) {
					t.Fatalf("step %d: appendUnder(%q, %q, skip %d) = %v, want %v (%v)", step, lead, id, skip, got, want, ref.sorted())
				}
			case 5:
				got, ok := c.sibling(id)
				if want, wok := ref.sibling(id); ok != wok || (ok && got != want) {
					t.Fatalf("step %d: sibling(%q) = %d, %t; want %d, %t", step, id, got, ok, want, wok)
				}
			}
			checkAgainst(t, &c, ref)
		}
	})
}

// TestCoverTracksTopology drives 10,000 seeded topology mutations — joins,
// departures, crashes, load-controller splits, replication-degree changes —
// at each starting degree and after every one compares the trie with the
// arrays it indexes: its in-order walk is order, a name resolves to the slot
// that carries it, and OwnersIntersecting is what filtering every identifier
// by prefix finds. The full audit runs every 250 steps and at the end.
func TestCoverTracksTopology(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1000
	}
	for replicas := 1; replicas <= 3; replicas++ {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			n, err := BuildRandom(24, 120, int64(90+replicas))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(replicas)))
			for i := 0; i < 200; i++ {
				oid := kautz.Random(rng, n.K())
				if _, err := n.PublishAt(oid, Object{Name: fmt.Sprintf("o%03d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.SetReplicas(replicas); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < steps; step++ {
				var what string
				var err error
				switch r := rng.Intn(100); {
				case r < 40 && n.Size() < 260:
					what = "join"
					_, err = n.Join()
				case r < 70 && n.Size() > 40:
					what = "leave"
					err = n.Leave(n.RandomPeer(rng))
				case r < 85 && n.Size() > 40:
					what = "fail"
					err = n.FailAbrupt(n.RandomPeer(rng))
				case r < 99:
					// A split may run into its cascade budget or the
					// identifier-length ceiling: refused, nothing corrupted.
					what = "split"
					if _, _, _, err = n.SplitRegion(n.RandomPeer(rng)); err != nil && !errors.Is(err, ErrCorrupt) {
						err = nil
					}
				default:
					what = "set replicas"
					err = n.SetReplicas(1 + rng.Intn(3))
				}
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				if walk := n.cover.appendUnder(nil, 0, "", noSlot); !slices.Equal(walk, n.order) {
					t.Fatalf("step %d (%s): the trie's in-order walk is not order:\n%v\n%v", step, what, n.IDs(walk), n.PeerIDs())
				}
				ids := n.PeerIDs()
				for i, id := range ids {
					if s, ok := n.Slot(id); !ok || s != n.order[i] {
						t.Fatalf("step %d (%s): Slot(%q) = %d, %t; order holds %d", step, what, id, s, ok, n.order[i])
					}
				}
				for probe := 0; probe < 4; probe++ {
					prefix := kautz.Random(rng, n.K())[:rng.Intn(12)]
					var want []kautz.Str
					for _, id := range ids {
						if kautz.PrefixComparable(id, prefix) {
							want = append(want, id)
						}
					}
					if got := n.OwnersIntersecting(prefix); !slices.Equal(got, want) {
						t.Fatalf("step %d (%s): OwnersIntersecting(%q) = %v, want %v", step, what, prefix, got, want)
					}
				}
				if step%250 == 0 {
					if err := n.Audit(); err != nil {
						t.Fatalf("step %d (%s): %v", step, what, err)
					}
				}
			}
			if err := n.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
