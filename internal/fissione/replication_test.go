package fissione

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"armada/internal/kautz"
)

func TestReplicaGroupPlacement(t *testing.T) {
	n, err := BuildRandom(16, 40, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(3); err != nil {
		t.Fatal(err)
	}
	ids := n.PeerIDs()
	for i, owner := range ids {
		group := n.groupIDs(owner)
		if len(group) != 3 {
			t.Fatalf("group of %q has %d members, want 3", owner, len(group))
		}
		if group[0] != owner {
			t.Fatalf("group of %q does not lead with the owner: %v", owner, group)
		}
		for j := 1; j < len(group); j++ {
			if want := ids[(i+j)%len(ids)]; group[j] != want {
				t.Fatalf("group of %q member %d = %q, want successor %q", owner, j, group[j], want)
			}
		}
	}
	// Degrees above the network size cap at the network size.
	small, err := New(8, 901)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SetReplicas(5); err != nil {
		t.Fatal(err)
	}
	if got := small.groupIDs("0"); len(got) != 3 {
		t.Fatalf("3-peer network group has %d members, want 3", len(got))
	}
	if err := small.SetReplicas(0); err == nil {
		t.Fatal("SetReplicas(0) accepted")
	}
}

func TestReplicatedFanoutAndAudit(t *testing.T) {
	n, err := BuildRandom(16, 30, 910)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(911))
	oid := kautz.Random(rng, 16)
	obj := Object{Name: "x", Values: []float64{1, 2}}
	owner, err := n.PublishAt(oid, obj)
	if err != nil {
		t.Fatal(err)
	}
	group := n.groupIDs(owner)
	for _, id := range group {
		p, _ := n.Peer(id)
		if run := p.copyPrefixRun(owner); len(run.Idx) != 1 {
			t.Fatalf("member %q holds %d objects of %q's region, want 1", id, len(run.Idx), owner)
		}
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after replicated publish: %v", err)
	}
	if _, err := n.UnpublishAt(oid, obj); err != nil {
		t.Fatalf("unpublish: %v", err)
	}
	for _, id := range group {
		p, _ := n.Peer(id)
		if p.ObjectCount() != 0 {
			t.Fatalf("member %q still holds objects after unpublish", id)
		}
	}
	if _, err := n.UnpublishAt(oid, obj); err == nil {
		t.Fatal("second unpublish of the same object succeeded")
	}
}

// TestReplicationSurvivesChurn drives random publishes, unpublishes and
// topology churn — including crash-stops — against a 2-replicated network
// and a naive reference multiset, asserting after every event that the
// audit (with byte-for-byte replica verification) passes, that region
// queries match the reference exactly, and that no object is ever lost.
func TestReplicationSurvivesChurn(t *testing.T) {
	const k = 14
	n, err := BuildRandom(k, 50, 920)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(921))
	ref := refStore{}
	var live []StoredObject

	collectRegion := func(r kautz.Region) []StoredObject {
		// Gather the region's objects the way the query engine does: each
		// owner contributes only its own region's slice, so replica copies
		// never double-count.
		var out []StoredObject
		for _, id := range n.PeerIDs() {
			own := kautz.Region{Low: kautz.MinExtend(id, k), High: kautz.MaxExtend(id, k)}
			clipped, ok := r.Intersect(own)
			if !ok {
				continue
			}
			p, _ := n.Peer(id)
			out = append(out, viewOf(p, "", clipped, "")...)
		}
		return out
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // publish
			oid, obj := kautz.Random(rng, k), refObject(rng)
			if _, err := n.PublishAt(oid, obj); err != nil {
				t.Fatalf("step %d: publish: %v", step, err)
			}
			ref.add(oid, obj)
			live = append(live, StoredObject{ObjectID: oid, Object: obj})
		case op < 6 && len(live) > 0: // unpublish a live object — must never miss
			i := rng.Intn(len(live))
			so := live[i]
			if _, err := n.UnpublishAt(so.ObjectID, so.Object); err != nil {
				t.Fatalf("step %d: unpublish of live object %v: %v", step, so, err)
			}
			ref.remove(so.ObjectID, so.Object)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 7: // join
			if _, err := n.Join(); err != nil {
				t.Fatalf("step %d: join: %v", step, err)
			}
		case op < 8: // graceful leave
			if n.Size() > 10 {
				if err := n.Leave(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
					t.Fatalf("step %d: leave: %v", step, err)
				}
			}
		case op < 9: // crash-stop — replication must absorb it
			if n.Size() > 10 {
				if err := n.FailAbrupt(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
					t.Fatalf("step %d: fail: %v", step, err)
				}
			}
		default: // verify a random region against the reference
			a, b := kautz.Random(rng, k), kautz.Random(rng, k)
			if a > b {
				a, b = b, a
			}
			r := kautz.Region{Low: a, High: b}
			got, want := collectRegion(r), ref.inRegion(r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: region %v diverged: got %d objects, want %d", step, r, len(got), len(want))
			}
		}
		if err := n.Audit(); err != nil {
			t.Fatalf("step %d: audit: %v", step, err)
		}
	}
	if n.ReReplications() == 0 {
		t.Fatal("churn storm triggered no re-replication")
	}

	// Crash-stop durability: every object the reference still holds must be
	// removable — nothing was lost across the whole storm.
	for _, so := range live {
		if _, err := n.UnpublishAt(so.ObjectID, so.Object); err != nil {
			t.Fatalf("object %v lost during churn: %v", so, err)
		}
	}
	if err := n.Audit(); err != nil { // every chunk but the fill chunk released
		t.Fatal(err)
	}
}

// TestSetReplicasTransitions grows and shrinks the degree on a loaded
// network: every transition must leave placement consistent.
func TestSetReplicasTransitions(t *testing.T) {
	const k = 14
	n, err := BuildRandom(k, 40, 930)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(931))
	for i := 0; i < 300; i++ {
		if _, err := n.PublishAt(kautz.Random(rng, k), refObject(rng)); err != nil {
			t.Fatal(err)
		}
	}
	total := func() int {
		c := 0
		for _, id := range n.PeerIDs() {
			p, _ := n.Peer(id)
			own := kautz.Region{Low: kautz.MinExtend(id, k), High: kautz.MaxExtend(id, k)}
			c += len(viewOf(p, "", own, ""))
		}
		return c
	}
	for _, r := range []int{3, 2, 4, 1, 2} {
		if err := n.SetReplicas(r); err != nil {
			t.Fatalf("SetReplicas(%d): %v", r, err)
		}
		if err := n.Audit(); err != nil {
			t.Fatalf("audit at degree %d: %v", r, err)
		}
		if err := n.CheckReplicas(); err != nil {
			t.Fatalf("CheckReplicas at degree %d: %v", r, err)
		}
		if got := total(); got != 300 {
			t.Fatalf("degree %d: %d primary objects, want 300", r, got)
		}
	}
}

func TestCheckReplicasDetectsDivergence(t *testing.T) {
	n, err := BuildRandom(14, 30, 940)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(941))
	oid := kautz.Random(rng, 14)
	owner, err := n.PublishAt(oid, Object{Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the replica behind the network's back.
	replica, _ := n.Peer(n.groupIDs(owner)[1])
	if !take(replica, oid, Object{Name: "probe"}) {
		t.Fatal("replica did not hold the object")
	}
	if err := n.CheckReplicas(); err == nil {
		t.Fatal("CheckReplicas missed a diverged replica")
	}
	// And a foreign run on a non-member must be caught too.
	put(replica, oid, Object{Name: "probe"}) // repair the first corruption
	if err := n.CheckReplicas(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	// A copy of the owner's size holding another object is diverged too.
	take(replica, oid, Object{Name: "probe"})
	put(replica, oid, Object{Name: "changeling"})
	if err := n.CheckReplicas(); err == nil {
		t.Fatal("CheckReplicas missed a replica holding another object in the owner's count")
	}
	take(replica, oid, Object{Name: "changeling"})
	put(replica, oid, Object{Name: "probe"})
	ids := n.PeerIDs()
	var outsider *Peer
	for _, id := range ids {
		if !slices.Contains(n.groupIDs(owner), id) {
			outsider, _ = n.Peer(id)
			break
		}
	}
	put(outsider, oid, Object{Name: "stray"})
	if err := n.CheckReplicas(); err == nil {
		t.Fatal("CheckReplicas missed a stray copy outside the group")
	}
}

func TestAbsorbAllObjectsTakesMultisetMax(t *testing.T) {
	peers := testPeers(10, 2)
	src, dst := peers[0], peers[1]
	shared := Object{Name: "s", Values: []float64{1}}
	dup := Object{Name: "d", Values: []float64{2}}
	only := Object{Name: "o", Values: []float64{3}}
	// shared×1 and dup×2 on both (a replicated run); only×1 on src alone.
	for _, p := range []*Peer{src, dst} {
		put(p, "0101010101", shared)
		put(p, "0101010102", dup)
		put(p, "0101010102", dup)
	}
	put(src, "0202020202", only)
	src.moveAllObjects(dst, true)
	if src.ObjectCount() != 0 {
		t.Fatal("source not empty after absorb")
	}
	if got := dst.ObjectCount(); got != 4 {
		t.Fatalf("absorbed store holds %d objects, want 4 (shared×1, dup×2, only×1)", got)
	}
}

func BenchmarkReplicatedPublish(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			n, err := BuildRandom(20, 200, 950)
			if err != nil {
				b.Fatal(err)
			}
			if err := n.SetReplicas(r); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(951))
			ids := make([]kautz.Str, 4096)
			for i := range ids {
				ids[i] = kautz.Random(rng, 20)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.PublishAt(ids[i%len(ids)], Object{Name: "b"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
