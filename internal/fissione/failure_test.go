package fissione

import (
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

func TestFailAbruptLosesOnlyCrashedPeersObjects(t *testing.T) {
	n, err := BuildRandom(20, 60, 301)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(302))
	// Publish objects and remember each one's owner.
	owners := make(map[kautz.Str]kautz.Str, 200)
	for i := 0; i < 200; i++ {
		oid := kautz.Random(rng, 20)
		owner, err := n.PublishAt(oid, Object{Name: "o"})
		if err != nil {
			t.Fatal(err)
		}
		owners[oid] = owner
	}
	victim := n.PeerIDAt(rng.Intn(n.Size()))
	victimObjects := 0
	for _, owner := range owners {
		if owner == victim {
			victimObjects++
		}
	}
	if err := n.FailAbrupt(victim); err != nil {
		t.Fatal(err)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("network inconsistent after crash: %v", err)
	}
	// Every object not on the victim must still be on its (new) owner.
	surviving := 0
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		surviving += p.ObjectCount()
	}
	if surviving != len(owners)-victimObjects {
		t.Fatalf("%d objects survive, want %d (victim held %d)",
			surviving, len(owners)-victimObjects, victimObjects)
	}
}

func TestFailAbruptValidation(t *testing.T) {
	n, err := New(12, 303)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailAbrupt("0"); err == nil {
		t.Error("crash below 3 peers accepted")
	}
	if err := n.FailAbrupt("01012"); err == nil {
		t.Error("crash of unknown peer accepted")
	}
}

func TestRepeatedCrashesStayConsistent(t *testing.T) {
	n, err := BuildRandom(22, 80, 305)
	if err != nil {
		t.Fatal(err)
	}
	publishRandom(t, n, 2000, 307) // lost crash by crash: the record arena uncounts them
	rng := rand.New(rand.NewSource(306))
	for i := 0; i < 40; i++ {
		if err := n.FailAbrupt(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		if err := n.Audit(); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
	}
	if n.Size() != 40 {
		t.Fatalf("size = %d, want 40", n.Size())
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}
