package fissione

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"armada/internal/kautz"
)

// TestSnapshotRoundTrip pins the loader to the builder: a loaded network
// must match the saved one byte for byte — cover, tables, epoch,
// replication degree — and continue the same join sequence.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		k, size  int
		seed     int64
		replicas int
		churn    bool
	}{
		{16, 50, 1, 1, false},
		{32, 500, 7, 1, false},
		{32, 300, 3, 2, false},
		{32, 400, 11, 1, true},
		{32, 400, 13, 3, true},
	} {
		n, err := BuildRandom(tc.k, tc.size, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if tc.replicas > 1 {
			if err := n.SetReplicas(tc.replicas); err != nil {
				t.Fatal(err)
			}
		}
		if tc.churn {
			// Shake the topology so the snapshot covers a churned network,
			// not just a fresh build.
			for i := 0; i < 20; i++ {
				if _, err := n.Join(); err != nil {
					t.Fatal(err)
				}
			}
			ids := n.PeerIDs()
			for i := 0; i < 10; i++ {
				if err := n.Leave(ids[(i*37)%len(ids)]); err != nil {
					t.Fatal(err)
				}
			}
		}

		var buf bytes.Buffer
		if err := n.WriteSnapshot(&buf); err != nil {
			t.Fatalf("k=%d size=%d: write: %v", tc.k, tc.size, err)
		}
		m, err := LoadSnapshot(&buf)
		if err != nil {
			t.Fatalf("k=%d size=%d: load: %v", tc.k, tc.size, err)
		}

		if got, want := m.Fingerprint(), n.Fingerprint(); got != want {
			t.Fatalf("k=%d size=%d: fingerprint %x != %x", tc.k, tc.size, got, want)
		}
		if got, want := m.Epoch(), n.Epoch(); got != want {
			t.Errorf("k=%d size=%d: epoch %d != %d", tc.k, tc.size, got, want)
		}
		if got, want := m.Replicas(), n.Replicas(); got != want {
			t.Errorf("k=%d size=%d: replicas %d != %d", tc.k, tc.size, got, want)
		}
		if err := m.Audit(); err != nil {
			t.Errorf("k=%d size=%d: loaded audit: %v", tc.k, tc.size, err)
		}
		// rng continuity: the next join draws the same target on both.
		jn, err1 := n.Join()
		jm, err2 := m.Join()
		if err1 != nil || err2 != nil {
			t.Fatalf("k=%d size=%d: post-load join: %v / %v", tc.k, tc.size, err1, err2)
		}
		if jn != jm {
			t.Errorf("k=%d size=%d: post-load joins diverge: %q != %q", tc.k, tc.size, jn, jm)
		}
	}
}

// TestSnapshotBytesStable pins the snapshot format across the move to
// slot-addressed tables and the move to derived ones. The fixture was
// written before the first (string-keyed tables; 200 peers, replication
// degree 2, after 12 joins and 12 leaves, so a network that lived through the
// same history has slots out of trie order), then had its stored out-edges cut
// and its magic set to the table-free format: it must load, carry the
// fingerprint recorded then — the trailer still verifies, for the derived
// tables are the stored ones — and re-save to the same bytes; slot numbering
// leaks into neither.
func TestSnapshotBytesStable(t *testing.T) {
	const fingerprint = 0x853c5d5f6799454a
	raw, err := os.ReadFile("testdata/snapshot_parent_200.bin")
	if err != nil {
		t.Fatal(err)
	}
	n, err := LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 200 || n.Replicas() != 2 || n.Epoch() != 222 {
		t.Fatalf("loaded %d peers, degree %d, epoch %d; want 200, 2, 222", n.Size(), n.Replicas(), n.Epoch())
	}
	if got := n.Fingerprint(); got != fingerprint {
		t.Fatalf("fingerprint %#x, recorded %#x", got, uint64(fingerprint))
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
	save := func(n *Network) []byte {
		var buf bytes.Buffer
		if err := n.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := save(n); !bytes.Equal(got, raw) {
		t.Fatalf("re-saved fixture differs: %d bytes, want %d", len(got), len(raw))
	}
	// Churn renumbers nothing a snapshot shows: leave and rejoin so that
	// slots are recycled, then compare a save with a save of its reload,
	// which numbers its slots afresh.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		if err := n.Leave(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Join(); err != nil {
			t.Fatal(err)
		}
	}
	churned := save(n)
	m, err := LoadSnapshot(bytes.NewReader(churned))
	if err != nil {
		t.Fatal(err)
	}
	if got := save(m); !bytes.Equal(got, churned) {
		t.Fatalf("a churned network and its reload save differently: %d bytes vs %d", len(churned), len(got))
	}
}

// TestSnapshotRejectsCorruption checks truncation and bit flips surface as
// load errors, not corrupt networks.
func TestSnapshotRejectsCorruption(t *testing.T) {
	n, err := BuildRandom(16, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := LoadSnapshot(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	if _, err := LoadSnapshot(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("snapshot missing fingerprint byte loaded without error")
	}
	for _, pos := range []int{0, len(snapshotMagic) + 1, len(raw) / 2, len(raw) - 3} {
		flipped := append([]byte(nil), raw...)
		flipped[pos] ^= 0x40
		if _, err := LoadSnapshot(bytes.NewReader(flipped)); err == nil {
			t.Errorf("snapshot with byte %d flipped loaded without error", pos)
		}
	}

	// A corrupt join count must fail the trailer before anyone replays it:
	// 2⁴⁰ rng draws would take hours.
	done := make(chan error, 1)
	go func() {
		_, err := LoadSnapshot(bytes.NewReader(forgeJoins(raw, 1<<40)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("snapshot with a forged join count loaded without error")
		}
	case <-time.After(time.Second):
		t.Fatal("LoadSnapshot is still replaying a forged join count after 1 s")
	}
}

// Two exact covers that break the neighborhood invariant, as the seed peers
// of New(8, 1) divided in these orders. Every table of the gap-two cover fits
// a node, but "0120" neighbors "12"; the lopsided cover keeps "0" one symbol
// long beside three-symbol peers, so its table needs eight entries.
var (
	gapTwoCover   = []kautz.Str{"0", "01", "012", "1", "2"}
	lopsidedCover = []kautz.Str{"1", "12", "2", "21"}
)

// forgedCover divides the seed peers of New(8, 1) in the given order without
// the walk to a local length minimum that keeps a join safe — what only a
// hostile writer produces — and derives every table, returning the network
// and the error of that derivation.
func forgedCover(t testing.TB, divide ...kautz.Str) (*Network, error) {
	t.Helper()
	n, err := New(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range divide {
		s, _ := n.Slot(id)
		created, err := n.divide(s)
		if err != nil {
			t.Fatal(err)
		}
		n.orderInsert(int(n.nodes[s].pos)+1, created)
	}
	return n, n.refreshAll(slices.Clone(n.order))
}

// forgedSnapshot saves a forged cover with the trailer that vouches for it.
func forgedSnapshot(t testing.TB, divide ...kautz.Str) []byte {
	t.Helper()
	n, _ := forgedCover(t, divide...)
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotForgedCoverRefused loads forged files the trailer cannot stop
// (it is a checksum, not a signature). The loader derives every table from
// the cover, so a cover that breaks the neighborhood invariant never loads:
// the gap-two one fails the invariant check, the lopsided one the derivation.
func TestSnapshotForgedCoverRefused(t *testing.T) {
	_, err := LoadSnapshot(bytes.NewReader(forgedSnapshot(t, gapTwoCover...)))
	if err == nil || !strings.Contains(err.Error(), `invariant violated: |"0120"|-|"12"| = 2`) {
		t.Errorf("gap-two cover: %v, want the invariant error", err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(forgedSnapshot(t, lopsidedCover...))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lopsided cover: %v, want ErrCorrupt", err)
	}
}

// TestRefreshAllOverflowKeepsLiveSlots holds refreshTables' overflow
// contract, which no snapshot reaches any more: deriving a table past a node
// returns ErrCorrupt, keeps live slots only in every table, and leaves the
// cut table for Audit to report stale.
func TestRefreshAllOverflowKeepsLiveSlots(t *testing.T) {
	n, err := forgedCover(t, lopsidedCover...)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deriving the lopsided cover's tables: %v, want ErrCorrupt", err)
	}
	for _, s := range n.order {
		for _, nb := range n.neighbors(s) {
			if n.nodes[nb].peer == nil {
				t.Fatalf("table of %q names slot %d, which holds no peer", n.nodes[s].id, nb)
			}
		}
	}
	if err := n.CheckTables(); err == nil {
		t.Error("CheckTables passed a table cut to fit its node")
	}
}

// forgeJoins returns the snapshot raw with its join-count field rewritten
// (the header is magic, k, seed, joins, ...).
func forgeJoins(raw []byte, joins uint64) []byte {
	off := len(snapshotMagic)
	_, n := binary.Uvarint(raw[off:]) // k
	off += n
	_, n = binary.Varint(raw[off:]) // seed
	off += n
	_, n = binary.Uvarint(raw[off:]) // joins
	out := binary.AppendUvarint(append([]byte(nil), raw[:off]...), joins)
	return append(out, raw[off+n:]...)
}

// FuzzLoadSnapshot feeds the loader arbitrary bytes. It must reject them or
// return a network that survives a save/load round trip with the same
// fingerprint and then a little churn — never panic, whatever cover the
// input forged (churn may fail; errors are the point), and never
// work (allocate, replay) in proportion to a count the input merely claims.
func FuzzLoadSnapshot(f *testing.F) {
	n, err := BuildRandom(12, 24, 5)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	for _, cut := range []int{0, len(snapshotMagic), len(raw) / 3, len(raw) / 2, len(raw) - 8, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	f.Add(forgeJoins(raw, 1<<40))
	// A header claiming 2²⁸ peers (the loader's cap) and carrying none.
	f.Add(append([]byte(snapshotMagic), 12, 0, 0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x01))
	f.Add(forgedSnapshot(f, lopsidedCover...))
	f.Add(forgedSnapshot(f, gapTwoCover...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteSnapshot(&out); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		again, err := LoadSnapshot(&out)
		if err != nil {
			t.Fatalf("accepted snapshot does not reload: %v", err)
		}
		if again.Fingerprint() != got.Fingerprint() {
			t.Fatalf("fingerprint moved across a round trip: %x != %x", again.Fingerprint(), got.Fingerprint())
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 6; i++ {
			got.Join()
			got.Leave(got.PeerIDAt(rng.Intn(got.Size())))
		}
	})
}
