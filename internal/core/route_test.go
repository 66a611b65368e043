package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// learned is the simplest Router: the set of tiles descents have taught it.
type learned map[Tile]bool

func (l learned) Knows(t Tile) bool { return l[t] }
func (l learned) Learn(owners []Tile) {
	for _, t := range owners {
		l[t] = true
	}
}

// learnedOf is the Router of an issuer that has learned exactly the named
// owners, in the slots they hold now.
func learnedOf(net *fissione.Network, owners []kautz.Str) learned {
	l := learned{}
	for _, id := range owners {
		slot, _ := net.Slot(id)
		l[Tile{Slot: slot, ID: id}] = true
	}
	return l
}

// ranged runs one range query, failing the test on an error.
func ranged(t *testing.T, eng *Engine, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) *RangeResult {
	t.Helper()
	res, err := eng.RangeQuery(context.Background(), issuer, lo, hi, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSeededEqual requires a seeded query to return what the fresh descent
// returned — objects, destinations, cursor — at one message and one hop per
// destination.
func requireSeededEqual(t *testing.T, what string, seeded, fresh *RangeResult) {
	t.Helper()
	if !reflect.DeepEqual(seeded.Matches, fresh.Matches) || seeded.Next != fresh.Next ||
		!reflect.DeepEqual(seeded.Destinations, fresh.Destinations) {
		t.Fatalf("%s: seeded query diverged from the fresh descent\nseeded %d objects at %v, next %q\nfresh  %d objects at %v, next %q",
			what, len(seeded.Matches), seeded.Destinations, seeded.Next, len(fresh.Matches), fresh.Destinations, fresh.Next)
	}
	s := seeded.Stats
	if s.DescentsSaved != 1 || s.DestPeers != fresh.Stats.DestPeers || s.Messages != s.DestPeers ||
		s.Deliveries != s.DestPeers || s.Delay != min(1, s.DestPeers) || s.Subregions != 0 {
		t.Fatalf("%s: seeded stats %+v over %d destinations; want DescentsSaved 1 and one message, one hop each", what, s, fresh.Stats.DestPeers)
	}
}

// seededWorlds runs f on one world per attribute count and replication
// degree; reads stay on the primary so results compare byte for byte.
func seededWorlds(t *testing.T, f func(t *testing.T, w goldenWorld, rng *rand.Rand)) {
	for _, tc := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 3}} {
		t.Run(fmt.Sprintf("attrs=%d/k=%d", tc[0], tc[1]), func(t *testing.T) {
			seed := int64(500 + 10*tc[0] + tc[1])
			f(t, buildGoldenWorld(t, tc[0], tc[1], 150, 900, seed), rand.New(rand.NewSource(seed)))
		})
	}
}

// TestFrontierSeededEquivalence runs random paged walks twice — every page a
// fresh descent, then every page past the first seeded from what the first
// page's descent taught — and requires identical pages at one message per
// surviving destination: a cursor retires the owners below it.
func TestFrontierSeededEquivalence(t *testing.T) {
	seededWorlds(t, func(t *testing.T, w goldenWorld, rng *rand.Rand) {
		net := w.eng.Network()
		for trial := 0; trial < 12; trial++ {
			lo, hi := goldenBox(rng, w.tree, 0.12)
			issuer, l := net.PeerIDAt(rng.Intn(net.Size())), learned{}
			first := ranged(t, w.eng, issuer, lo, hi, WithLimit(25), WithRouter(l))
			if first.Stats.DescentsSaved != 0 || len(l) != first.Stats.DestPeers {
				t.Fatalf("first page: stats %+v, %d owners learned; want a descent that teaches every destination", first.Stats, len(l))
			}
			after, dests := first.Next, first.Stats.DestPeers
			for page := 2; after != ""; page++ {
				fresh := ranged(t, w.eng, issuer, lo, hi, WithLimit(25), WithAfter(after))
				seeded := ranged(t, w.eng, net.PeerIDAt(rng.Intn(net.Size())), lo, hi, WithLimit(25), WithAfter(after), WithRouter(l))
				requireSeededEqual(t, fmt.Sprintf("trial %d page %d", trial, page), seeded, fresh)
				if seeded.Stats.DestPeers > dests {
					t.Fatalf("trial %d page %d: %d destinations after %d; a cursor only retires owners", trial, page, seeded.Stats.DestPeers, dests)
				}
				after, dests = fresh.Next, seeded.Stats.DestPeers
			}
		}
	})
}

// TestShortcutSeededEquivalence: an issuer that learned a wide query's
// destinations is seeded on every query inside it, at exactly the destinations
// that query's own descent reaches.
func TestShortcutSeededEquivalence(t *testing.T) {
	seededWorlds(t, func(t *testing.T, w goldenWorld, rng *rand.Rand) {
		for trial := 0; trial < 12; trial++ {
			lo, hi := goldenBox(rng, w.tree, 0.1)
			issuer, l := w.eng.Network().PeerIDAt(rng.Intn(w.eng.Network().Size())), learned{}
			ranged(t, w.eng, issuer, lo, hi, WithRouter(l))
			nlo, nhi := make([]float64, len(lo)), make([]float64, len(lo))
			for shrink := 0.0; shrink < 0.5; shrink += 0.15 {
				for a := range lo {
					nlo[a], nhi[a] = lo[a]+shrink*(hi[a]-lo[a]), hi[a]-shrink*(hi[a]-lo[a])
				}
				requireSeededEqual(t, fmt.Sprintf("trial %d shrunk by %.2f", trial, shrink),
					ranged(t, w.eng, issuer, nlo, nhi, WithRouter(l)), ranged(t, w.eng, issuer, nlo, nhi))
			}
		}
	})
}

// TestFrontierCoversRejectsWiderQuery: the owners a narrow query taught do not
// seed a wider one — it descends, and what that teaches seeds the narrow query
// with identical results.
func TestFrontierCoversRejectsWiderQuery(t *testing.T) {
	eng, _ := buildSingle(t, 60, 400, 11)
	issuer, l := eng.Network().PeerIDAt(0), learned{}
	narrowLo, narrowHi := []float64{300}, []float64{400}
	ranged(t, eng, issuer, narrowLo, narrowHi, WithRouter(l))
	if wide := ranged(t, eng, issuer, []float64{200}, []float64{600}, WithRouter(l)); wide.Stats.DescentsSaved != 0 {
		t.Error("a narrow query's owners seeded a wider query")
	}
	requireSeededEqual(t, "narrow inside the learned wide",
		ranged(t, eng, issuer, narrowLo, narrowHi, WithRouter(l)), ranged(t, eng, issuer, narrowLo, narrowHi))
}

// TestFrontierEntriesClippedToOwners: a seeded delivery carries the query
// region as it came, and what bounds it is ownership. A cursor past an
// owner's region retires that owner — it is not messaged — and on a
// replicated network the serving replica's scan stops at the owner's prefix,
// so the neighboring regions it also stores are returned once, by their own
// deliveries.
func TestFrontierEntriesClippedToOwners(t *testing.T) {
	for replicas := 1; replicas <= 3; replicas++ {
		w := buildGoldenWorld(t, 1, replicas, 100, 500, int64(17+replicas))
		issuer, l := w.eng.Network().PeerIDAt(0), learned{}
		lo, hi := []float64{0}, []float64{1000}
		full := ranged(t, w.eng, issuer, lo, hi, WithRouter(l))
		mid := kautz.Str(full.Matches[len(full.Matches)/2].ID)
		fresh := ranged(t, w.eng, issuer, lo, hi, WithAfter(mid))
		seeded := ranged(t, w.eng, issuer, lo, hi, WithAfter(mid), WithRouter(l))
		if s := seeded.Stats; s.DescentsSaved != 1 || s.Messages != fresh.Stats.DestPeers || s.Messages >= full.Stats.DestPeers {
			t.Fatalf("k=%d: cursor-clipped seeding cost %+v over %d learned owners, %d of them ahead of the cursor", replicas, s, full.Stats.DestPeers, fresh.Stats.DestPeers)
		}
		if len(seeded.Matches) != len(fresh.Matches) {
			t.Fatalf("k=%d: replicas served %d matches, the owners hold %d", replicas, len(seeded.Matches), len(fresh.Matches))
		}
		for i, m := range seeded.Matches {
			if m.ID != fresh.Matches[i].ID || m.Name != fresh.Matches[i].Name {
				t.Fatalf("k=%d: match %d is %s/%s, the owners' is %s/%s", replicas, i, m.ID, m.Name, fresh.Matches[i].ID, fresh.Matches[i].Name)
			}
		}
	}
}

// TestShortcutMIRAGuard: under a box, an owner the region spans but the box
// does not meet is no destination — a descent prunes it, and so does seeding
// from a wider query's owners. Narrowing one attribute of a learned box keeps
// the region's corners close but must shed those owners: Destinations and
// DestPeers equal the narrow box's own descent.
func TestShortcutMIRAGuard(t *testing.T) {
	w := buildGoldenWorld(t, 2, 1, 300, 900, 61)
	rng := rand.New(rand.NewSource(62))
	shed := 0
	for trial := 0; trial < 20; trial++ {
		lo, hi := goldenBox(rng, w.tree, 0.3)
		issuer, l := w.eng.Network().PeerIDAt(rng.Intn(w.eng.Network().Size())), learned{}
		wide := ranged(t, w.eng, issuer, lo, hi, WithRouter(l))
		a := trial % 2 // the attribute narrowed to the middle tenth of its span
		c, d := (lo[a]+hi[a])/2, (hi[a]-lo[a])/20
		lo[a], hi[a] = c-d, c+d
		fresh, seeded := ranged(t, w.eng, issuer, lo, hi), ranged(t, w.eng, issuer, lo, hi, WithRouter(l))
		if seeded.Stats.DescentsSaved == 0 {
			continue // a sliver box spanning too many owners it does not meet descends
		}
		requireSeededEqual(t, fmt.Sprintf("trial %d", trial), seeded, fresh)
		if fresh.Stats.DestPeers < wide.Stats.DestPeers {
			shed++
		}
	}
	if shed < 5 {
		t.Fatalf("only %d of 20 narrowed boxes were seeded at fewer owners than the wide box taught; the test exercises little", shed)
	}
}

// TestShortcutLookup: a lookup whose owner the issuer has learned resolves in
// one message and one hop with the same owner and objects.
func TestShortcutLookup(t *testing.T) {
	eng, objs := buildSingle(t, 80, 300, 23)
	ctx := context.Background()
	issuer := eng.Network().PeerIDAt(0)
	oid, err := eng.Tree().Hash(objs[0].Values[0])
	if err != nil {
		t.Fatal(err)
	}
	l := learned{}
	fresh, err := eng.Lookup(ctx, issuer, oid, WithRouter(l))
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := eng.Lookup(ctx, issuer, oid, WithRouter(l))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Owner != fresh.Owner || !reflect.DeepEqual(seeded.Objects, fresh.Objects) {
		t.Fatal("seeded lookup diverged from fresh descent")
	}
	if fresh.Stats.DescentsSaved != 0 || seeded.Stats.DescentsSaved != 1 || seeded.Stats.Messages != 1 || seeded.Stats.Delay != 1 {
		t.Fatalf("stats = %+v then %+v; want a descent, then 1 message and 1 hop", fresh.Stats, seeded.Stats)
	}
}

// TestShortcutMissCostsNothing: an issuer that does not know every
// destination — one is missing, or was learned in another slot — falls back
// to the normal descent at exactly the baseline's message cost (no retry
// surcharge), and the descent teaches it the rest.
func TestShortcutMissCostsNothing(t *testing.T) {
	eng, _ := buildSingle(t, 100, 500, 29)
	net := eng.Network()
	issuer := net.PeerIDAt(0)
	lo, hi := []float64{100}, []float64{700}
	fresh := ranged(t, eng, issuer, lo, hi)
	if len(fresh.Destinations) < 3 {
		t.Fatalf("test range too narrow: %d destinations", len(fresh.Destinations))
	}
	holed := learnedOf(net, append(fresh.Destinations[:1:1], fresh.Destinations[2:]...))
	moved := learnedOf(net, fresh.Destinations)
	slot, _ := net.Slot(fresh.Destinations[1])
	delete(moved, Tile{Slot: slot, ID: fresh.Destinations[1]})
	moved[Tile{Slot: slot + 1, ID: fresh.Destinations[1]}] = true
	for name, l := range map[string]learned{"holed": holed, "other-slot": moved} {
		res := ranged(t, eng, issuer, lo, hi, WithRouter(l))
		if res.Stats.DescentsSaved != 0 || res.Stats.Messages != fresh.Stats.Messages || !reflect.DeepEqual(res.Matches, fresh.Matches) {
			t.Fatalf("%s: stats %+v, plain descent %+v — a miss must be free and exact", name, res.Stats, fresh.Stats)
		}
		if res = ranged(t, eng, issuer, lo, hi, WithRouter(l)); res.Stats.DescentsSaved != 1 {
			t.Fatalf("%s: the fallback descent did not teach its destinations: %+v", name, res.Stats)
		}
	}
}

// TestFrontierStaleEpochFallsBack: what was learned under an older topology
// epoch goes stale tile by tile, not wholesale. A split elsewhere moves the
// epoch and costs nothing; a split of one destination renames its slot, so the
// query descends once — exact, at the descent's plain cost — and re-learns.
// (The route cache's differential test drives this through long random churn.)
func TestFrontierStaleEpochFallsBack(t *testing.T) {
	eng, _ := buildSingle(t, 120, 600, 9)
	net, l := eng.Network(), learned{}
	lo, hi := []float64{100}, []float64{120}
	issuer := net.PeerIDs()[0]
	first := ranged(t, eng, issuer, lo, hi, WithRouter(l))
	epoch := net.Epoch()
	if _, _, _, err := net.SplitRegion(net.PeerIDs()[net.Size()-1]); err != nil { // far above the range
		t.Fatal(err)
	}
	if res := ranged(t, eng, issuer, lo, hi, WithRouter(l)); net.Epoch() == epoch || res.Stats.DescentsSaved != 1 {
		t.Fatalf("a split elsewhere (epoch %d → %d) cost the query its seeding: %+v", epoch, net.Epoch(), res.Stats)
	}
	if _, _, _, err := net.SplitRegion(first.Destinations[1]); err != nil {
		t.Fatal(err)
	}
	fresh := ranged(t, eng, issuer, lo, hi)
	stale := ranged(t, eng, issuer, lo, hi, WithRouter(l))
	if stale.Stats != fresh.Stats || !reflect.DeepEqual(stale.Matches, fresh.Matches) || stale.Stats.DestPeers <= first.Stats.DestPeers {
		t.Fatalf("after a destination split: %+v, the plain descent %+v", stale.Stats, fresh.Stats)
	}
	requireSeededEqual(t, "re-learned", ranged(t, eng, issuer, lo, hi, WithRouter(l)), fresh)
}

// TestShortcutReplicaServedWithoutRedirect: on a replicated network a seeded
// read addresses the serving replica the issuer chose directly —
// ReplicaServed counts it, but Messages stays one per destination (the
// descent path pays a redirect message for the same serve).
func TestShortcutReplicaServedWithoutRedirect(t *testing.T) {
	w := buildGoldenWorld(t, 1, 2, 80, 400, 43)
	net := w.eng.Network()
	issuer := net.PeerIDAt(0)
	lo, hi := []float64{200}, []float64{800}
	fresh := ranged(t, w.eng, issuer, lo, hi)
	seeded := ranged(t, w.eng, issuer, lo, hi, WithRouter(learnedOf(net, fresh.Destinations)))
	if seeded.Stats.DescentsSaved != 1 || !reflect.DeepEqual(seeded.Matches, fresh.Matches) {
		t.Fatalf("replica-served seeded query diverged from the descent: %+v", seeded.Stats)
	}
	if seeded.Stats.DestPeers >= 2 && seeded.Stats.ReplicaServed == 0 {
		t.Fatal("round-robin over the owners' groups never served from a replica")
	}
	if seeded.Stats.Messages != seeded.Stats.DestPeers {
		t.Fatalf("replica serves cost extra messages: %d over %d destinations", seeded.Stats.Messages, seeded.Stats.DestPeers)
	}
}
