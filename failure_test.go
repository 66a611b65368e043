package armada

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestFailLosesOnlyCrashedData(t *testing.T) {
	net, err := NewNetwork(80, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 160; i++ {
		if err := net.Publish(objName(i), float64(i*6)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	victim := net.RandomPeer()
	owners := make([]string, len(before.Objects)) // read before the crash hands the victim's region on
	for i, o := range before.Objects {
		owners[i] = ownerOf(t, net, o.ID)
	}
	if err := net.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("invariants broken after crash: %v", err)
	}
	after, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	lost := len(before.Objects) - len(after.Objects)
	if lost < 0 {
		t.Fatalf("objects appeared after crash: %d -> %d", len(before.Objects), len(after.Objects))
	}
	// Everything that survived must be found; only the victim's share may
	// be missing.
	surviving := make(map[string]bool, len(after.Objects))
	for _, o := range after.Objects {
		surviving[o.Name] = true
	}
	for i, o := range before.Objects {
		if owners[i] != victim && !surviving[o.Name] {
			t.Fatalf("object %q (on %q, not the victim %q) vanished", o.Name, owners[i], victim)
		}
	}
}

func TestFailValidation(t *testing.T) {
	net, err := NewNetwork(3, WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Fail("0"); !errors.Is(err, ErrTooSmall) {
		t.Errorf("fail below 3 peers error = %v", err)
	}
	if err := net.Fail("nope"); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("fail unknown peer error = %v", err)
	}
}

func TestTraceQueryRecordsDescent(t *testing.T) {
	net, err := NewNetwork(120, WithSeed(45))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := net.Publish(objName(i), float64(i*16)); err != nil {
			t.Fatal(err)
		}
	}
	issuer := net.PeerIDs()[5]
	var hops []Hop
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 200, High: 400}},
		WithIssuer(issuer), WithTrace(func(h Hop) { hops = append(hops, h) })))
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) == 0 {
		t.Fatal("trace recorded no hops")
	}
	forwards, deliveries := 0, 0
	for _, h := range hops {
		if h.From == h.To && h.Remaining == 0 {
			deliveries++
			continue
		}
		forwards++
		if h.Depth < 0 || h.Depth > res.Stats.Delay {
			t.Fatalf("hop depth %d outside [0, %d]", h.Depth, res.Stats.Delay)
		}
	}
	if forwards != res.Stats.Messages {
		t.Fatalf("trace recorded %d forwards, stats say %d messages", forwards, res.Stats.Messages)
	}
	if deliveries != res.Stats.DestPeers {
		t.Fatalf("trace recorded %d deliveries, stats say %d destinations", deliveries, res.Stats.DestPeers)
	}
	// The first hop always originates at the issuer.
	if hops[0].From != issuer {
		t.Fatalf("first hop from %q, want issuer %q", hops[0].From, issuer)
	}
}

func TestCrashStormWithQueries(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(47))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 30; i++ {
		if err := net.Fail(net.PeerIDs()[rng.Intn(net.Size())]); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 100}})); err != nil {
			t.Fatalf("query after crash %d: %v", i, err)
		}
	}
	if net.Size() != 70 {
		t.Fatalf("size = %d, want 70", net.Size())
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}
