package fissione

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"armada/internal/kautz"
)

func TestNewSeedsThreePeers(t *testing.T) {
	n, err := New(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 3 {
		t.Fatalf("size = %d, want 3", n.Size())
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
	// K(2,1) adjacency: each seed peer neighbors the other two.
	for _, id := range []kautz.Str{"0", "1", "2"} {
		s, ok := n.Slot(id)
		if !ok {
			t.Fatalf("missing seed peer %q", id)
		}
		if out, in := n.Out(s), n.In(s); len(out) != 2 || len(in) != 2 {
			t.Fatalf("seed %q degree out=%d in=%d, want 2/2", id, len(out), len(in))
		}
	}
}

func TestNewRejectsBadK(t *testing.T) {
	if _, err := New(1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := New(kautz.MaxRankLen+1, 1); err == nil {
		t.Error("k too large accepted")
	}
}

func TestJoinGrowsAndStaysSound(t *testing.T) {
	n, err := New(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := n.Join(); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if n.Size() != 203 {
		t.Fatalf("size = %d, want 203", n.Size())
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildBalancedLengthSpread(t *testing.T) {
	n, err := BuildBalanced(24, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := n.IDLengths()
	if s.Max-s.Min > 1 {
		t.Fatalf("balanced build spread %d..%d, want ≤ 1", s.Min, s.Max)
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Section 3 of the paper: maximum identifier length < 2·log₂N and average
// < log₂N.
func TestIDLengthBounds(t *testing.T) {
	for _, size := range []int{100, 500, 2000} {
		n, err := BuildRandom(30, size, 11)
		if err != nil {
			t.Fatal(err)
		}
		logN := log2(float64(size))
		s := n.IDLengths()
		if float64(s.Max) >= 2*logN {
			t.Errorf("N=%d: max ID length %d ≥ 2log N = %.2f", size, s.Max, 2*logN)
		}
		if s.Avg >= logN {
			t.Errorf("N=%d: avg ID length %.2f ≥ log N = %.2f", size, s.Avg, logN)
		}
	}
}

// FISSIONE's average total degree is about 4 (out-degree about 2).
func TestFissioneDegree(t *testing.T) {
	n, err := BuildRandom(30, 1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if d := n.AvgDegree(); d < 3.5 || d > 4.5 {
		t.Errorf("avg total degree = %.2f, want ≈ 4", d)
	}
	if d := n.AvgOutDegree(); d < 1.7 || d > 2.3 {
		t.Errorf("avg out-degree = %.2f, want ≈ 2", d)
	}
}

func TestOwnerOf(t *testing.T) {
	n, err := BuildRandom(20, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		oid := kautz.Random(rng, 20)
		owner, err := n.OwnerOf(oid)
		if err != nil {
			t.Fatalf("OwnerOf(%q): %v", oid, err)
		}
		if !oid.HasPrefix(owner) {
			t.Fatalf("owner %q is not a prefix of %q", owner, oid)
		}
	}
	if _, err := n.OwnerOf("012"); err == nil {
		t.Error("short ObjectID accepted")
	}
	if _, err := n.OwnerOf(kautz.Str("0") + kautz.MinExtend("0", 19)); err == nil {
		t.Error("invalid ObjectID accepted")
	}
}

func TestPublishAtStoresOnOwner(t *testing.T) {
	n, err := BuildRandom(20, 32, 19)
	if err != nil {
		t.Fatal(err)
	}
	oid := kautz.Hash("my-file", 20)
	owner, err := n.PublishAt(oid, Object{Name: "my-file"})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := n.Peer(owner)
	if !ok {
		t.Fatalf("owner %q missing", owner)
	}
	if p.ObjectCount() != 1 {
		t.Fatalf("owner stores %d objects, want 1", p.ObjectCount())
	}
	objs := p.AllObjects()
	if len(objs) != 1 || objs[0].Object.Name != "my-file" || objs[0].ObjectID != oid {
		t.Fatalf("stored %+v", objs)
	}
}

// PublishRec and UnpublishKey are PublishAt and UnpublishAt for a caller that
// has the ObjectID's rank and its label in hand: the same owner, the same
// stored object, the same errors — and a rank outside the space, a label
// that is not k symbols long or a row too long for a slot's count is refused.
func TestPublishRecMatchesPublishAt(t *testing.T) {
	const k = 20
	n, err := BuildRandom(k, 32, 19)
	if err != nil {
		t.Fatal(err)
	}
	oid := kautz.Hash("my-file", k)
	want, err := n.PublishAt(oid, Object{Name: "at", Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.PublishRec(kautz.Rank(oid), []byte(oid), "rec", []float64{3})
	if err != nil || got != want {
		t.Fatalf("PublishRec stored at %q, %v; PublishAt at %q", got, err, want)
	}
	p, _ := n.Peer(want)
	if objs := p.AllObjects(); !reflect.DeepEqual(objs, []StoredObject{
		{ObjectID: oid, Object: Object{Name: "at", Values: []float64{1, 2}}},
		{ObjectID: oid, Object: Object{Name: "rec", Values: []float64{3}}},
	}) {
		t.Fatalf("stored %+v", objs)
	}
	if _, err := n.UnpublishKey(kautz.Rank(oid), "at", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.UnpublishKey(kautz.Rank(oid), "at", []float64{1, 2}); !errors.Is(err, ErrNoSuchObject) || !strings.Contains(err.Error(), string(oid)) {
		t.Fatalf("second removal: %v, want ErrNoSuchObject naming %q", err, oid)
	}
	for name, err := range map[string]error{
		"rank past the space":         second(n.PublishRec(kautz.SpaceSize(k), []byte(oid), "x", nil)),
		"short ObjectID":              second(n.PublishRec(kautz.Rank(oid), []byte(oid[:k-1]), "x", nil)),
		"row longer than a uint16":    second(n.PublishRec(kautz.Rank(oid), []byte(oid), "x", make([]float64, 1<<16))),
		"record longer than a uint16": second(n.PublishRec(kautz.Rank(oid), []byte(oid), strings.Repeat("x", 1<<16-k), nil)),
		"unpublish past the space":    second(n.UnpublishKey(kautz.SpaceSize(k), "x", nil)),
		"invalid ObjectID":            second(n.PublishAt(oid[:k-1]+oid[k-2:k-1], Object{Name: "x"})),
	} {
		if !errors.Is(err, ErrBadObjectID) {
			t.Errorf("%s: %v, want ErrBadObjectID", name, err)
		}
	}
	if p.ObjectCount() != 1 {
		t.Fatalf("owner stores %d objects after the refusals, want 1", p.ObjectCount())
	}
}

func second[T any](_ T, err error) error { return err }

func TestSplitMovesObjects(t *testing.T) {
	n, err := New(12, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Publish several objects under region 0·*, then split peer 0 and check
	// each object lives with the child owning its ObjectID.
	rng := rand.New(rand.NewSource(5))
	var oids []kautz.Str
	for i := 0; i < 40; i++ {
		oid := kautz.MinExtend("0", 12)
		for j := 0; j < i; j++ {
			next, ok := kautz.Succ(oid)
			if !ok {
				break
			}
			oid = next
		}
		if oid[0] != '0' {
			break
		}
		oids = append(oids, oid)
		if _, err := n.PublishAt(oid, Object{Name: string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	_ = rng
	kept, created, _, err := n.SplitRegion("0")
	if err != nil {
		t.Fatal(err)
	}
	if kept != "01" || created != "02" {
		t.Fatalf("split children = %q, %q", kept, created)
	}
	for _, oid := range oids {
		owner, err := n.OwnerOf(oid)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := n.Peer(owner)
		found := false
		for _, so := range p.AllObjects() {
			if so.ObjectID == oid {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %q not on its owner %q after split", oid, owner)
		}
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveCaseDirectMerge(t *testing.T) {
	n, err := BuildBalanced(20, 8, 29)
	if err != nil {
		t.Fatal(err)
	}
	// In a balanced network every leaf has a same-length sibling somewhere;
	// removing any peer must keep the network sound.
	id := n.PeerIDs()[3]
	if err := n.Leave(id); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 7 {
		t.Fatalf("size = %d, want 7", n.Size())
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLeavePreservesObjects(t *testing.T) {
	n, err := BuildRandom(20, 50, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	oids := make([]kautz.Str, 120)
	for i := range oids {
		oids[i] = kautz.Random(rng, 20)
		if _, err := n.PublishAt(oids[i], Object{Name: string(rune('A' + i%26))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		id := n.PeerIDAt(rng.Intn(n.Size()))
		if err := n.Leave(id); err != nil {
			t.Fatalf("leave %d (%q): %v", i, id, err)
		}
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		for _, so := range p.AllObjects() {
			owner, err := n.OwnerOf(so.ObjectID)
			if err != nil {
				t.Fatal(err)
			}
			if owner != id {
				t.Fatalf("object %q stored on %q but owned by %q", so.ObjectID, id, owner)
			}
			total++
		}
	}
	if total != len(oids) {
		t.Fatalf("%d objects after churn, want %d", total, len(oids))
	}
}

func TestLeaveRefusesBelowThree(t *testing.T) {
	n, err := New(12, 37)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Leave("0"); err == nil {
		t.Error("leave below 3 peers accepted")
	}
	if err := n.Leave("012"); err == nil {
		t.Error("leave of unknown peer accepted")
	}
}

// Heavy random churn keeps every structural property intact.
func TestChurnSoak(t *testing.T) {
	n, err := BuildRandom(26, 120, 41)
	if err != nil {
		t.Fatal(err)
	}
	publishRandom(t, n, 2000, 40) // what the record arena's counts are checked on
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 && n.Size() > 10 {
			if err := n.Leave(n.PeerIDAt(rng.Intn(n.Size()))); err != nil {
				t.Fatalf("step %d leave: %v", step, err)
			}
		} else {
			if _, err := n.Join(); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
		}
		if err := n.Audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// publishRandom publishes count objects under ObjectIDs drawn from a source
// of their own, so that the network's own draws are left as they were.
func publishRandom(t *testing.T, n *Network, count int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := range count {
		if _, err := n.PublishAt(kautz.Random(rng, n.K()), Object{Name: fmt.Sprintf("r%d", i), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOwnersIntersecting(t *testing.T) {
	n, err := BuildBalanced(16, 12, 43)
	if err != nil {
		t.Fatal(err)
	}
	// The full namespace intersects every peer.
	if got := n.OwnersIntersecting(""); len(got) != n.Size() {
		t.Fatalf("OwnersIntersecting(\"\") = %d peers, want %d", len(got), n.Size())
	}
	// A full-length prefix has exactly one owner.
	oid := kautz.MinExtend("", 15)
	owners := n.OwnersIntersecting(oid)
	if len(owners) != 1 {
		t.Fatalf("OwnersIntersecting(%q) = %v", oid, owners)
	}
}

// TestPeerIDAtFollowsPeerIDs: the positional accessor reads ascending
// identifier order, through churn that reorders slots.
func TestPeerIDAtFollowsPeerIDs(t *testing.T) {
	n, err := BuildBalanced(16, 20, 47)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for step := range 30 {
		ids := n.PeerIDs()
		for i, id := range ids {
			if got := n.PeerIDAt(i); got != id {
				t.Fatalf("step %d: PeerIDAt(%d) = %q, PeerIDs()[%d] = %q", step, i, got, i, id)
			}
		}
		if step%3 == 0 {
			err = n.Leave(ids[rng.Intn(len(ids))])
		} else {
			_, err = n.Join()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPeersIntersectingRegion(t *testing.T) {
	n, err := BuildBalanced(16, 24, 53)
	if err != nil {
		t.Fatal(err)
	}
	all := kautz.Region{Low: kautz.MinExtend("", 16), High: kautz.MaxExtend("", 16)}
	if got := n.PeersIntersectingRegion(all); len(got) != n.Size() {
		t.Fatalf("full region hits %d peers, want %d", len(got), n.Size())
	}
	point := kautz.Region{Low: kautz.MinExtend("", 16), High: kautz.MinExtend("", 16)}
	if got := n.PeersIntersectingRegion(point); len(got) != 1 {
		t.Fatalf("point region hits %d peers, want 1", len(got))
	}
}

func log2(x float64) float64 { return math.Log2(x) }
