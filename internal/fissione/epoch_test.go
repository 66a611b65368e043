package fissione

import (
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// TestEpochBumpsOnTopologyChange: every mutation that can move region
// ownership must advance the epoch, and nothing else may.
func TestEpochBumpsOnTopologyChange(t *testing.T) {
	n, err := BuildRandom(16, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := n.Epoch()
	if e == 0 {
		t.Error("building by joins left the epoch at zero")
	}

	if _, err := n.Join(); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() == e {
		t.Error("join did not bump the epoch")
	}
	e = n.Epoch()

	if err := n.Leave(n.PeerIDAt(n.rng.Intn(n.Size()))); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() == e {
		t.Error("leave did not bump the epoch")
	}
	e = n.Epoch()

	if err := n.FailAbrupt(n.PeerIDAt(n.rng.Intn(n.Size()))); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() == e {
		t.Error("crash did not bump the epoch")
	}
	e = n.Epoch()

	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() == e {
		t.Error("replication change did not bump the epoch")
	}
	e = n.Epoch()

	// Object operations move no ownership and must not invalidate
	// captured routing state.
	oid := kautz.Random(rand.New(rand.NewSource(3)), n.K())
	if _, err := n.PublishAt(oid, Object{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.UnpublishAt(oid, Object{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != e {
		t.Error("publish/unpublish bumped the epoch")
	}
}
