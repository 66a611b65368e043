package fissione

import (
	"errors"
	"slices"
	"testing"
	"unsafe"

	"armada/internal/kautz"
)

// sameBacking reports whether two equal strings share one backing array.
func sameBacking(a, b kautz.Str) bool {
	return len(a) == len(b) && unsafe.StringData(string(a)) == unsafe.StringData(string(b))
}

// buildSequential grows a network by plain sequential joins — the
// reference path GrowBatch must match byte for byte.
func buildSequential(t *testing.T, k, size int, seed int64) *Network {
	t.Helper()
	n, err := New(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Grow(size - n.Size()); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBatchBuildMatchesSequential pins the batch-construction path to the
// sequential-join path: same seed, same size — identical identifier set,
// identical routing tables, identical epoch, identical subsequent rng
// draws.
func TestBatchBuildMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		k, size int
		seed    int64
	}{
		{8, 4, 1},
		{16, 50, 1},
		{16, 50, 2},
		{32, 500, 7},
		{32, 1000, 42},
	} {
		seq := buildSequential(t, tc.k, tc.size, tc.seed)
		batch, err := BuildRandom(tc.k, tc.size, tc.seed)
		if err != nil {
			t.Fatalf("k=%d size=%d seed=%d: batch build: %v", tc.k, tc.size, tc.seed, err)
		}

		if got, want := batch.Size(), seq.Size(); got != want {
			t.Fatalf("k=%d size=%d seed=%d: size %d != %d", tc.k, tc.size, tc.seed, got, want)
		}
		if got, want := batch.Epoch(), seq.Epoch(); got != want {
			t.Errorf("k=%d size=%d seed=%d: epoch %d != %d", tc.k, tc.size, tc.seed, got, want)
		}
		if !slices.Equal(batch.PeerIDs(), seq.PeerIDs()) {
			t.Fatalf("k=%d size=%d seed=%d: identifier sets differ", tc.k, tc.size, tc.seed)
		}
		for _, id := range seq.PeerIDs() {
			sp, _ := seq.Slot(id)
			bp, ok := batch.Slot(id)
			if !ok {
				t.Fatalf("k=%d size=%d seed=%d: batch missing peer %q", tc.k, tc.size, tc.seed, id)
			}
			if got, want := batch.IDs(batch.Out(bp)), seq.IDs(seq.Out(sp)); !slices.Equal(got, want) {
				t.Errorf("k=%d size=%d seed=%d: out-table of %q differs: %v != %v",
					tc.k, tc.size, tc.seed, id, got, want)
			}
			if got, want := batch.IDs(batch.In(bp)), seq.IDs(seq.In(sp)); !slices.Equal(got, want) {
				t.Errorf("k=%d size=%d seed=%d: in-table of %q differs: %v != %v",
					tc.k, tc.size, tc.seed, id, got, want)
			}
		}
		if got, want := batch.Fingerprint(), seq.Fingerprint(); got != want {
			t.Errorf("k=%d size=%d seed=%d: fingerprint %x != %x", tc.k, tc.size, tc.seed, got, want)
		}
		if err := batch.Audit(); err != nil {
			t.Errorf("k=%d size=%d seed=%d: batch audit: %v", tc.k, tc.size, tc.seed, err)
		}

		// The rng must be left in the same state: the next join on both
		// networks draws the same target and creates the same peer.
		sNext, serr := seq.Join()
		bNext, berr := batch.Join()
		if serr != nil || berr != nil {
			t.Fatalf("k=%d size=%d seed=%d: post-build join: %v / %v", tc.k, tc.size, tc.seed, serr, berr)
		}
		if sNext != bNext {
			t.Errorf("k=%d size=%d seed=%d: post-build joins diverge: %q != %q",
				tc.k, tc.size, tc.seed, sNext, bNext)
		}
	}
}

// TestGrowBatchReplicatedFallsBack checks the batch path defers to
// sequential Grow on a replicated network and stays audit-clean.
func TestGrowBatchReplicatedFallsBack(t *testing.T) {
	n, err := New(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.GrowBatch(20); err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	if err := n.GrowBatch(20); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 43 {
		t.Fatalf("size %d != 43", n.Size())
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintMoves checks the fingerprint actually covers the
// topology: any mutation must change it.
func TestFingerprintMoves(t *testing.T) {
	n, err := BuildRandom(16, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := n.Fingerprint()
	if got := n.Fingerprint(); got != before {
		t.Fatalf("fingerprint not stable: %x != %x", got, before)
	}
	if _, err := n.Join(); err != nil {
		t.Fatal(err)
	}
	if got := n.Fingerprint(); got == before {
		t.Fatal("fingerprint unchanged by a join")
	}
	ids := n.PeerIDs()
	if err := n.Leave(ids[len(ids)/2]); err != nil {
		t.Fatal(err)
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedTables checks routing-table entries are slots whose
// identifier — the one copy the slot array holds — aliases the named peer's
// own id string rather than a private copy: the invariant the footprint
// diet rests on.
func TestInternedTables(t *testing.T) {
	n, err := BuildRandom(16, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range n.PeerIDs() {
		s, _ := n.Slot(id)
		for _, nb := range n.neighbors(s) {
			q := n.PeerAt(nb)
			if q == nil {
				t.Fatalf("peer %q lists slot %d, which holds no peer", id, nb)
			}
			if !sameBacking(n.IDAt(nb), q.ID()) {
				t.Fatalf("slot %d's identifier %q is a private copy, not the peer's own", nb, n.IDAt(nb))
			}
		}
	}
}

// TestAuditSampled checks the sampled audit passes on a clean network,
// degenerates to the full audit at small sizes, and still catches a
// corrupted cover (which is always checked in full).
func TestAuditSampled(t *testing.T) {
	n, err := BuildRandom(32, 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []int{0, 1, 10, 50, 299, 300, 1000} {
		if err := n.AuditSampled(sample); err != nil {
			t.Errorf("sample=%d: %v", sample, err)
		}
	}
	// Corrupt the cover: a peer renamed below its predecessor breaks
	// prefix-freeness, which even the sampled audit must catch (the cover
	// check is full). rename itself refuses such a name, so the identifier
	// is written behind the index's back.
	nd := &n.nodes[n.order[42]]
	if err := n.rename(n.order[42], n.IDAt(n.order[41])+"0"); !errors.Is(err, ErrCorrupt) || n.Audit() != nil {
		t.Fatalf("rename below a live identifier: %v, audit then %v; want ErrCorrupt and nothing changed", err, n.Audit())
	}
	nd.id = n.IDAt(n.order[41]) + "0"
	nd.peer.id = nd.id
	if err := n.AuditSampled(10); err == nil {
		t.Error("sampled audit missed a corrupted cover")
	}
}
