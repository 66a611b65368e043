package armada

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"armada/internal/naming"
)

func TestNewNetworkDefaults(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 100 {
		t.Fatalf("size = %d", net.Size())
	}
	if net.Attributes() != 1 {
		t.Fatalf("attributes = %d", net.Attributes())
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(2); err == nil {
		t.Error("2-peer network accepted")
	}
	if _, err := NewNetwork(10, WithK(1)); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewNetwork(10, WithAttributes()); err == nil {
		t.Error("empty attributes accepted")
	}
	if _, err := NewNetwork(10, WithAttributes(AttributeSpace{Low: 5, High: 5})); err == nil {
		t.Error("empty attribute space accepted")
	}
}

// A space too wide for the naming to divide is refused where the tree is
// built, on the cold path and the warm one — not answered with a network on
// which every value hashes to one leaf.
func TestUnrepresentableSpaceRejected(t *testing.T) {
	wide := WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: -1e308, High: 1e308})
	if net, err := NewNetwork(10, wide); !errors.Is(err, naming.ErrBadSpace) {
		t.Errorf("NewNetwork: got %v, %v; want naming.ErrBadSpace", net, err)
	}
	cold, err := NewNetwork(10)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if net, err := LoadSnapshot(&buf, wide); !errors.Is(err, naming.ErrBadSpace) {
		t.Errorf("LoadSnapshot: got %v, %v; want naming.ErrBadSpace", net, err)
	}
}

func TestPublishAndRangeQuery(t *testing.T) {
	net, err := NewNetwork(200, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{
		"alice": 83.5, "bob": 72, "carol": 91, "dave": 65.5, "eve": 78,
	}
	for name, s := range scores {
		if err := net.Publish(name, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 70, High: 80}}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"bob": true, "eve": true}
	if len(res.Objects) != len(want) {
		t.Fatalf("matches = %v", res.Objects)
	}
	for _, o := range res.Objects {
		if !want[o.Name] {
			t.Fatalf("unexpected match %q", o.Name)
		}
		if o.Peer == "" || o.ID == "" {
			t.Fatalf("match missing provenance: %+v", o)
		}
	}
	logN := math.Log2(float64(net.Size()))
	if float64(res.Stats.Delay) >= 2*logN {
		t.Fatalf("delay %d breaks the 2logN bound %.1f", res.Stats.Delay, 2*logN)
	}
}

func TestPublishArity(t *testing.T) {
	net, err := NewNetwork(20, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish("x", 1, 2); !errors.Is(err, ErrBadArity) {
		t.Errorf("wrong arity error = %v", err)
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 5, High: 1}})); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}, {0, 1}})); !errors.Is(err, ErrBadArity) {
		t.Error("extra range accepted")
	}
}

func TestMultiAttributeQuery(t *testing.T) {
	net, err := NewNetwork(150, WithSeed(9), WithAttributes(
		AttributeSpace{Low: 0, High: 16},  // memory GB
		AttributeSpace{Low: 0, High: 500}, // disk GB
	))
	if err != nil {
		t.Fatal(err)
	}
	type host struct {
		mem, disk float64
	}
	hosts := map[string]host{
		"h1": {1, 40}, "h2": {2, 100}, "h3": {4, 200}, "h4": {8, 400}, "h5": {3, 60},
	}
	for name, h := range hosts {
		if err := net.Publish(name, h.mem, h.disk); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's example: 1GB ≤ memory ≤ 4GB and 50GB ≤ disk ≤ 200GB.
	res, err := net.Do(context.Background(), NewRange([]Range{{1, 4}, {50, 200}}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"h2": true, "h3": true, "h5": true}
	if len(res.Objects) != len(want) {
		t.Fatalf("matches = %v", res.Objects)
	}
	for _, o := range res.Objects {
		if !want[o.Name] {
			t.Fatalf("unexpected match %q", o.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	net, err := NewNetwork(80, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PublishExact("the-file.txt"); err != nil {
		t.Fatal(err)
	}
	res, err := net.Do(context.Background(), NewLookup("the-file.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner == "" {
		t.Fatal("lookup returned no owner")
	}
	found := false
	for _, o := range res.Objects {
		if o.Name == "the-file.txt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lookup objects = %v", res.Objects)
	}
	// Lookup of an unpublished name still resolves an owner, with no
	// objects.
	res2, err := net.Do(context.Background(), NewLookup("missing"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Owner == "" || len(res2.Objects) != 0 {
		t.Fatalf("missing lookup = %+v", res2)
	}
}

func TestRangeQueryFromSpecificIssuer(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	issuer := net.PeerIDs()[0]
	res, err := net.Do(context.Background(), NewRange([]Range{{0, 1000}}, WithIssuer(issuer)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DestPeers != net.Size() {
		t.Fatalf("full query hit %d/%d peers", res.Stats.DestPeers, net.Size())
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}}, WithIssuer("21021"))); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("unknown issuer error = %v", err)
	}
}

func TestTopK(t *testing.T) {
	net, err := NewNetwork(120, WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	values := make([]float64, 200)
	for i := range values {
		values[i] = rng.Float64() * 1000
		if err := net.Publish(objName(i), values[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Do(context.Background(), NewRange([]Range{{0, 1000}}, WithTopK(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 5 {
		t.Fatalf("top-5 returned %d objects", len(res.Objects))
	}
	for i := 1; i < len(res.Objects); i++ {
		if res.Objects[i].Values[0] > res.Objects[i-1].Values[0] {
			t.Fatal("top-k not descending")
		}
	}
}

func TestJoinLeave(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Join()
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 51 {
		t.Fatalf("size after join = %d", net.Size())
	}
	if err := net.Leave(id); err != nil {
		t.Fatal(err)
	}
	if net.Size() != 50 {
		t.Fatalf("size after leave = %d", net.Size())
	}
	if err := net.Leave("not-a-peer"); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("leave unknown peer error = %v", err)
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestQueriesSurviveChurn(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := net.Publish(objName(i), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 {
			if _, err := net.Join(); err != nil {
				t.Fatal(err)
			}
		} else {
			ids := net.PeerIDs()
			if err := net.Leave(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		if step%10 != 0 {
			continue
		}
		res, err := net.Do(context.Background(), NewRange([]Range{{Low: 100, High: 500}}))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < 100; i++ {
			if v := float64(i * 10); v >= 100 && v <= 500 {
				want++
			}
		}
		if len(res.Objects) != want {
			t.Fatalf("step %d: %d matches, want %d", step, len(res.Objects), want)
		}
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedBuildTopology(t *testing.T) {
	net, err := NewNetwork(128, WithSeed(21), WithBalancedBuild())
	if err != nil {
		t.Fatal(err)
	}
	topo := net.Topology()
	if topo.MaxIDLength-topo.MinIDLength > 1 {
		t.Fatalf("balanced build spread %d..%d", topo.MinIDLength, topo.MaxIDLength)
	}
	if topo.Peers != 128 {
		t.Fatalf("topology peers = %d", topo.Peers)
	}
	if topo.AvgDegree < 3 || topo.AvgDegree > 5 {
		t.Errorf("avg degree = %.2f, want ≈ 4", topo.AvgDegree)
	}
}

// Concurrent queries against a stable network are safe and correct.
func TestConcurrentQueries(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := net.Publish(objName(i), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := net.Do(context.Background(), NewRange([]Range{{Low: float64(g * 50), High: float64(g*50 + 200)}}))
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.DestPeers == 0 {
					errs <- errors.New("query reached no peers")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{Messages: 30, DestPeers: 10}
	if s.MesgRatio() != 3 {
		t.Errorf("MesgRatio = %v", s.MesgRatio())
	}
	if got := s.IncreRatio(1024); math.Abs(got-20.0/9) > 1e-12 {
		t.Errorf("IncreRatio = %v", got)
	}
	if (Stats{}).MesgRatio() != 0 || (Stats{DestPeers: 1}).IncreRatio(8) != 0 {
		t.Error("degenerate ratios should be 0")
	}
}

func objName(i int) string {
	return "obj" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i%10))
}
