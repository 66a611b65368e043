package fissione

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// churned builds a network whose slots have been released and reused, so
// that slot order is not trie order and the free list is not empty.
func churned(t *testing.T) *Network {
	t.Helper()
	n, err := BuildRandom(24, 300, 41)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		if err := n.Leave(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if _, err := n.Join(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(n.free) == 0 || len(n.cover.free) == 0 || slices.IsSorted(n.order) {
		t.Fatalf("churn left %d free slots, %d free inner nodes and order sorted by slot: nothing to corrupt", len(n.free), len(n.cover.free))
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
	return n
}

// leafCell returns the cover cell registering the peer at position i.
func leafCell(t *testing.T, n *Network, i int) int {
	t.Helper()
	at, _ := n.cover.descend(0, rootPrev, n.nodes[n.order[i]].id)
	if n.cover.cells[at] != ^n.order[i] {
		t.Fatalf("cover does not register position %d", i)
	}
	return at
}

// TestCheckCoverCatchesHole: the identifiers must tile the namespace. A peer
// dropped from the topology without a neighbor taking its region over leaves
// a hole, which CheckCover reports.
func TestCheckCoverCatchesHole(t *testing.T) {
	n := churned(t)
	s := n.order[7]
	n.orderRemove(7)
	n.release(s)
	if err := n.CheckCover(); err == nil || !strings.Contains(err.Error(), "of the namespace") {
		t.Fatalf("CheckCover with one region uncovered: %v", err)
	}
}

// TestCheckTablesCatchesStaleEntry: a table must be the one its identifier
// derives, not merely a sorted list of live, mirrored slots. An out-entry
// replaced by the one before it keeps all three — equal entries sort, and the
// duplicate's in-list names the peer — so only the comparison with the
// derived table catches it.
func TestCheckTablesCatchesStaleEntry(t *testing.T) {
	n := churned(t)
	for _, s := range n.order {
		if nd := &n.nodes[s]; nd.outLen >= 2 {
			nd.nbr[1] = nd.nbr[0]
			if err := n.CheckTables(); err == nil || !strings.Contains(err.Error(), "stale out-table") {
				t.Fatalf("CheckTables with %q's out-list %v: %v", nd.id, n.IDs(n.Out(s)), err)
			}
			return
		}
	}
	t.Fatal("no peer with two out-neighbors")
}

// TestAuditCatchesSlotCorruption breaks the slot bookkeeping one way at a
// time and requires the audit to notice each: the invariants hops rely on
// without testing them — every table entry a live slot, lists ascending by
// identifier — and the ones every lookup by position relies on.
func TestAuditCatchesSlotCorruption(t *testing.T) {
	// at is a peer with two out-neighbors, so its out-list has an order.
	at := func(n *Network) *node {
		for _, s := range n.order {
			if nd := &n.nodes[s]; nd.outLen >= 2 {
				return nd
			}
		}
		t.Fatal("no peer with two out-neighbors")
		return nil
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(n *Network)
	}{
		{"table entry redirected to another live slot", "stale out-table", func(n *Network) {
			nd := at(n)
			nd.nbr[0] = n.order[(int(nd.pos)+len(n.order)/2)%len(n.order)]
		}},
		{"table list out of identifier order", "stale out-table", func(n *Network) {
			nd := at(n)
			nd.nbr[0], nd.nbr[1] = nd.nbr[1], nd.nbr[0]
		}},
		{"table entry names a free slot", "holds no peer", func(n *Network) {
			at(n).nbr[0] = n.free[0]
		}},
		{"table entry out of range", "holds no peer", func(n *Network) {
			at(n).nbr[0] = int32(len(n.nodes))
		}},
		{"referenced slot freed", "", func(n *Network) {
			victim := at(n).nbr[0]
			n.orderRemove(int(n.nodes[victim].pos))
			n.release(victim)
		}},
		{"order element overwritten", "at position", func(n *Network) {
			n.order[5] = n.order[6]
		}},
		{"order elements swapped", "at position", func(n *Network) {
			n.order[5], n.order[6] = n.order[6], n.order[5]
		}},
		{"order out of identifier order", "not ascending", func(n *Network) {
			a, b := n.order[5], n.order[6]
			n.order[5], n.order[6] = b, a
			n.nodes[a].pos, n.nodes[b].pos = 6, 5
		}},
		{"live slot on the free list", "live + ", func(n *Network) {
			n.free = append(n.free, n.order[3])
		}},
		{"free slot lost", "live + ", func(n *Network) {
			n.free = n.free[1:]
		}},
		{"free slot listed twice", "listed twice", func(n *Network) {
			n.free[1] = n.free[0]
		}},
		{"free slot still named", "still holds", func(n *Network) {
			n.nodes[n.free[0]].id = "0"
		}},
		{"cover leaf points at another slot", "in-order walk", func(n *Network) {
			n.cover.cells[leafCell(t, n, 7)] = ^n.order[8]
		}},
		{"cover leaves swapped", "in-order walk", func(n *Network) {
			a, b := leafCell(t, n, 7), leafCell(t, n, 9)
			n.cover.cells[a], n.cover.cells[b] = n.cover.cells[b], n.cover.cells[a]
		}},
		{"cover leaf unlinked", "in-order walk", func(n *Network) {
			n.cover.cells[leafCell(t, n, 7)] = 0
		}},
		{"cover leaves regrouped under the same walk", "cover resolves", func(n *Network) {
			// (L, (A, B)) becomes ((L, A), B): every leaf keeps its place in
			// the walk and two of them sit at the end of the wrong path.
			c := n.cover.cells
			for i := range n.order {
				if l := leafCell(t, n, i); l&1 == 0 && c[l+1] > 0 && c[c[l+1]] < 0 && c[c[l+1]+1] < 0 {
					q := c[l+1]
					c[l], c[l+1], c[q], c[q+1] = q, c[q+1], c[l], c[q]
					return
				}
			}
			t.Fatal("no leaf beside a pair of leaves")
		}},
		{"dangling inner node", "dangles", func(n *Network) {
			n.cover.cells = append(n.cover.cells, 0, 0)
		}},
		{"inner node linked twice", "linked twice", func(n *Network) {
			n.cover.cells[leafCell(t, n, 40)] = int32(leafCell(t, n, 7) &^ 1)
		}},
		{"released inner node still linked", "still linked", func(n *Network) {
			n.cover.free = append(n.cover.free, int32(leafCell(t, n, 7)&^1))
		}},
		{"released inner node lost", "dangles", func(n *Network) {
			n.cover.free = n.cover.free[1:]
		}},
		{"inner node out of range", "out of range", func(n *Network) {
			n.cover.cells[leafCell(t, n, 7)] = int32(len(n.cover.cells))
		}},
		{"peer renamed behind its node", "peer is", func(n *Network) {
			n.nodes[n.order[7]].peer.id += "0"
		}},
	} {
		n := churned(t)
		tc.corrupt(n)
		err := n.Audit()
		if err == nil {
			t.Errorf("%s: audit passed", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit failed with %q, want a mention of %q", tc.name, err, tc.want)
		}
		// Slot-level damage is global, so the sampled audit sees it too
		// whichever peers it samples; table damage it sees where it looks.
		if !strings.Contains(tc.name, "table") {
			if err := n.AuditSampled(5); err == nil {
				t.Errorf("%s: sampled audit passed", tc.name)
			}
		}
	}
}
