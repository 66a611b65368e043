package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// routeOf builds the shortcut route a warmed table would have learned for
// the query's destination owners (ascending, as Destinations already is).
func routeOf(dests []kautz.Str) ShortcutRoute {
	r := ShortcutRoute{Targets: make([]ShortcutTarget, len(dests))}
	for i, d := range dests {
		r.Targets[i] = ShortcutTarget{Owner: d}
	}
	return r
}

// TestShortcutSeededEquivalence: a range query routed by a learned
// shortcut returns byte-identical results to the fresh descent, at one
// message and one hop per destination.
func TestShortcutSeededEquivalence(t *testing.T) {
	for _, size := range []int{40, 150} {
		eng, _ := buildSingle(t, size, 600, int64(size)+5)
		rng := rand.New(rand.NewSource(int64(size) * 17))
		ctx := context.Background()
		for trial := 0; trial < 15; trial++ {
			lo := rng.Float64() * 800
			hi := lo + 20 + rng.Float64()*100
			issuer := eng.Network().RandomPeer(rng)

			fresh, err := eng.RangeQuery(ctx, issuer, []float64{lo}, []float64{hi})
			if err != nil {
				t.Fatal(err)
			}
			seeded, err := eng.RangeQuery(ctx, issuer, []float64{lo}, []float64{hi},
				WithShortcutRoute(routeOf(fresh.Destinations)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seeded.Matches, fresh.Matches) {
				t.Fatalf("N=%d [%f,%f]: shortcut result diverged from fresh descent", size, lo, hi)
			}
			if seeded.Stats.ShortcutHits != 1 || seeded.Stats.DescentsSaved != 1 {
				t.Fatalf("stats = %+v; want ShortcutHits=1, DescentsSaved=1", seeded.Stats)
			}
			if seeded.Stats.DestPeers != fresh.Stats.DestPeers {
				t.Fatalf("shortcut reached %d destinations, fresh %d",
					seeded.Stats.DestPeers, fresh.Stats.DestPeers)
			}
			if seeded.Stats.Messages != seeded.Stats.DestPeers {
				t.Fatalf("shortcut cost %d messages over %d destinations; want one each",
					seeded.Stats.Messages, seeded.Stats.DestPeers)
			}
			if seeded.Stats.Delay != 1 {
				t.Fatalf("shortcut delay %d, want the single fan-out hop", seeded.Stats.Delay)
			}
		}
	}
}

// TestShortcutLookup: a lookup routed by its learned owner resolves in one
// message and one hop with the same owner and objects.
func TestShortcutLookup(t *testing.T) {
	eng, objs := buildSingle(t, 80, 300, 23)
	tree, err := naming.NewSingleTree(testK, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	issuer := eng.Network().RandomPeer(nil)
	oid, err := tree.Hash(objs[0].Values[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.Lookup(ctx, issuer, oid)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := eng.Lookup(ctx, issuer, oid,
		WithShortcutRoute(routeOf([]kautz.Str{fresh.Owner})))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Owner != fresh.Owner || !reflect.DeepEqual(seeded.Objects, fresh.Objects) {
		t.Fatal("shortcut lookup diverged from fresh descent")
	}
	if seeded.Stats.ShortcutHits != 1 || seeded.Stats.Messages != 1 || seeded.Stats.Delay != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 message, 1 hop", seeded.Stats)
	}
}

// TestShortcutMissCostsNothing: a route the live topology refuses — an
// unknown owner, or a cover with a hole — falls back to the normal
// descent at exactly the baseline's message cost (no retry surcharge).
func TestShortcutMissCostsNothing(t *testing.T) {
	eng, _ := buildSingle(t, 100, 500, 29)
	ctx := context.Background()
	issuer := eng.Network().RandomPeer(nil)
	lo, hi := []float64{100}, []float64{700}

	fresh, err := eng.RangeQuery(ctx, issuer, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Destinations) < 3 {
		t.Fatalf("test range too narrow: %d destinations", len(fresh.Destinations))
	}
	holed := routeOf(append(append([]kautz.Str(nil),
		fresh.Destinations[0]), fresh.Destinations[2:]...))
	unknown := routeOf([]kautz.Str{"01010101"})
	for name, route := range map[string]ShortcutRoute{"holed": holed, "unknown-owner": unknown} {
		res, err := eng.RangeQuery(ctx, issuer, lo, hi, WithShortcutRoute(route))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ShortcutHits != 0 || res.Stats.DescentsSaved != 0 {
			t.Fatalf("%s route was trusted: %+v", name, res.Stats)
		}
		if res.Stats.Messages != fresh.Stats.Messages {
			t.Fatalf("%s fallback cost %d messages, plain descent %d — misses must be free",
				name, res.Stats.Messages, fresh.Stats.Messages)
		}
		if !reflect.DeepEqual(res.Matches, fresh.Matches) {
			t.Fatalf("%s fallback diverged from fresh descent", name)
		}
	}
}

// TestShortcutMIRAGuard: multi-attribute (MIRA) range queries must ignore
// shortcut routes — the descent prunes destinations with the box subspace
// predicate a region tiling cannot express.
func TestShortcutMIRAGuard(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 100, 37)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewTree(testK, naming.Space{Low: 0, High: 100}, naming.Space{Low: 0, High: 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		obj := fissione.Object{Name: objName(i), Values: []float64{rng.Float64() * 100, rng.Float64() * 10}}
		oid, err := tree.Hash(obj.Values...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, obj); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	issuer := net.RandomPeer(nil)
	lo, hi := []float64{10, 2}, []float64{60, 8}
	fresh, err := eng.RangeQuery(ctx, issuer, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := eng.RangeQuery(ctx, issuer, lo, hi,
		WithShortcutRoute(routeOf(fresh.Destinations)))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.ShortcutHits != 0 {
		t.Fatalf("MIRA query took a shortcut: %+v", seeded.Stats)
	}
	if !reflect.DeepEqual(seeded.Matches, fresh.Matches) {
		t.Fatal("MIRA fallback diverged")
	}
}

// TestShortcutReplicaServedWithoutRedirect: on a replicated network a
// shortcut-routed read addresses the issuer-chosen serving replica
// directly — ReplicaServed counts it, but Messages stays one per
// destination (the descent path pays a redirect message for the same
// serve).
func TestShortcutReplicaServedWithoutRedirect(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 80, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewSingleTree(testK, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 400; i++ {
		v := rng.Float64() * 1000
		oid, err := tree.Hash(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: objName(i), Values: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	issuer := net.RandomPeer(nil)
	lo, hi := []float64{200}, []float64{800}
	fresh, err := eng.RangeQuery(ctx, issuer, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	route := ShortcutRoute{Targets: make([]ShortcutTarget, len(fresh.Destinations))}
	var buf [16]*fissione.Peer
	for i, d := range fresh.Destinations {
		owner, _ := net.Slot(d)
		group := net.AppendGroupPeers(buf[:0], owner)
		ids := make([]kautz.Str, len(group))
		for j, p := range group {
			ids[j] = p.ID()
		}
		route.Targets[i] = ShortcutTarget{Owner: d, Group: ids}
	}
	seeded, err := eng.RangeQuery(ctx, issuer, lo, hi,
		WithShortcutRoute(route), WithReadPolicy(ReadRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.ShortcutHits != 1 {
		t.Fatalf("replicated shortcut refused: %+v", seeded.Stats)
	}
	// Match.Peer names the serving replica — a policy choice, not result
	// content; the objects themselves must be identical.
	strip := func(ms []Match) []Match {
		out := make([]Match, len(ms))
		for i, m := range ms {
			m.Peer = ""
			out[i] = m
		}
		return out
	}
	if !reflect.DeepEqual(strip(seeded.Matches), strip(fresh.Matches)) {
		t.Fatal("replica-served shortcut diverged from the primary descent")
	}
	if seeded.Stats.DestPeers >= 2 && seeded.Stats.ReplicaServed == 0 {
		t.Fatal("round-robin over learned groups never served from a replica")
	}
	if seeded.Stats.Messages != seeded.Stats.DestPeers {
		t.Fatalf("replica serves cost extra messages: %d over %d destinations",
			seeded.Stats.Messages, seeded.Stats.DestPeers)
	}
}
