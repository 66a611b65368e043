package fissione

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
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
// fingerprint — never panic, and never work (allocate, replay) in
// proportion to a count the input merely claims.
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
	})
}
