package armada

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotWarmStartIdentity pins the warm-start path to the cold
// build: a network loaded from a snapshot with the same options must have
// the same topology fingerprint and answer identically-issued queries with
// byte-identical results.
func TestSnapshotWarmStartIdentity(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		opts := []Option{WithSeed(5), WithReplication(replicas)}
		cold, err := NewNetwork(400, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()

		var buf bytes.Buffer
		if err := cold.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		warm, err := LoadSnapshot(&buf, opts...)
		if err != nil {
			t.Fatalf("replicas=%d: load: %v", replicas, err)
		}
		defer warm.Close()

		if got, want := warm.TopologyFingerprint(), cold.TopologyFingerprint(); got != want {
			t.Fatalf("replicas=%d: fingerprint %x != %x", replicas, got, want)
		}
		if got, want := warm.Size(), cold.Size(); got != want {
			t.Fatalf("replicas=%d: size %d != %d", replicas, got, want)
		}
		if err := warm.Audit(); err != nil {
			t.Fatalf("replicas=%d: loaded audit: %v", replicas, err)
		}

		// Same publishes on both, then the same queries from the same
		// issuers: results must match byte for byte, cost metrics included.
		for _, net := range []*Network{cold, warm} {
			for i := 0; i < 200; i++ {
				if err := net.Publish(fmt.Sprintf("obj-%03d", i), float64(i%100)*10); err != nil {
					t.Fatal(err)
				}
			}
		}
		issuer := cold.PeerIDs()[7]
		if warm.PeerIDs()[7] != issuer {
			t.Fatalf("replicas=%d: issuer order diverged", replicas)
		}
		queries := []Query{
			NewLookup("obj-042", WithIssuer(issuer)),
			NewRange([]Range{{Low: 100, High: 300}}, WithIssuer(issuer)),
			NewRange([]Range{{Low: 0, High: 999}}, WithIssuer(issuer)),
		}
		for qi, q := range queries {
			rc, err1 := cold.Do(context.Background(), q)
			rw, err2 := warm.Do(context.Background(), q)
			if err1 != nil || err2 != nil {
				t.Fatalf("replicas=%d query %d: %v / %v", replicas, qi, err1, err2)
			}
			if !reflect.DeepEqual(rc.Objects, rw.Objects) {
				t.Errorf("replicas=%d query %d: objects diverge (%d vs %d)",
					replicas, qi, len(rc.Objects), len(rw.Objects))
			}
			if rc.Stats != rw.Stats {
				t.Errorf("replicas=%d query %d: stats diverge: %+v != %+v", replicas, qi, rc.Stats, rw.Stats)
			}
		}

		// Churn continuity: the same join/leave sequence applies cleanly on
		// both and keeps them identical.
		for i := 0; i < 10; i++ {
			if _, err := cold.Join(); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Join(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := warm.TopologyFingerprint(), cold.TopologyFingerprint(); got != want {
			t.Errorf("replicas=%d: fingerprint diverged after churn: %x != %x", replicas, got, want)
		}
	}
}

// TestLoadSnapshotAppliesOptions checks option handling on the warm path:
// replication may be raised at load, and caches come up as requested.
func TestLoadSnapshotAppliesOptions(t *testing.T) {
	cold, err := NewNetwork(100, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := LoadSnapshot(&buf, WithSeed(2), WithReplication(2), WithShortcutTable(64), WithFrontierCache(32))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := warm.Replicas(); got != 2 {
		t.Errorf("replicas %d != 2", got)
	}
	if cs, _ := warm.ShortcutTableStats(); cs.Capacity != 96 {
		t.Errorf("route cache capacity %d, want the two options' 64 + 32", cs.Capacity)
	}
	if err := warm.Audit(); err != nil {
		t.Error(err)
	}
}

// TestLoadSnapshotRejectsGarbage checks the armada wrapper surfaces decode
// failures.
func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage loaded without error")
	}
}
