package core_test

import (
	"testing"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
	"armada/internal/shortcut"
)

// routed builds a 2,000-peer engine and a route cache that has learned every
// owner, with the owners' tiles in trie order.
func routed(tb testing.TB) (*core.Engine, *shortcut.Table, []core.Tile) {
	tb.Helper()
	const k = 24
	net, err := fissione.BuildRandom(k, 2000, 7)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := naming.NewSingleTree(k, 0, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.New(net, tree)
	if err != nil {
		tb.Fatal(err)
	}
	ids := net.PeerIDs()
	tiles := make([]core.Tile, len(ids))
	for i, id := range ids {
		slot, _ := net.Slot(id)
		tiles[i] = core.Tile{Slot: slot, ID: id}
	}
	table := shortcut.NewTable(len(tiles))
	table.Learn(tiles)
	return eng, table, tiles
}

// span is the ranks from the first ObjectID of tiles[i] to the last of
// tiles[i+n-1]: n owners tile them.
func span(tiles []core.Tile, i, n int) kautz.Span {
	lo, _ := kautz.PrefixRanks(tiles[i].ID, 24)
	_, hi := kautz.PrefixRanks(tiles[i+n-1].ID, 24)
	return kautz.Span{Lo: lo, Hi: hi}
}

// benchSeed measures the cache-hit path alone — the owner probe, the walk
// along the trie order and one cache read per tile — over regions of n tiles.
func benchSeed(b *testing.B, n int) {
	eng, table, tiles := routed(b)
	regions := make([]kautz.Span, 256)
	for i := range regions {
		regions[i] = span(tiles, (i*7919)%(len(tiles)-n), n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dests, ok := eng.SeedOnly(table, regions[i%len(regions)]); !ok || dests != n {
			b.Fatalf("seeded at %d destinations (%v), want %d", dests, ok, n)
		}
	}
}

func BenchmarkRouteLookupHit(b *testing.B) { benchSeed(b, 1) }
func BenchmarkRouteRangeHit(b *testing.B)  { benchSeed(b, 12) }

// BenchmarkRouteLearn measures what a descent pays to teach the cache its 12
// destinations when none is known and the cache is full: 12 insertions, each
// evicting by second chance.
func BenchmarkRouteLearn(b *testing.B) {
	_, _, tiles := routed(b)
	table := shortcut.NewTable(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * 12) % (len(tiles) - 12)
		table.Learn(tiles[at : at+12])
	}
}

// The cache-hit path allocates nothing: no string built, no target list
// copied, the message queue pooled.
func TestRouteHitAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	eng, table, tiles := routed(t)
	for _, n := range []int{1, 12} {
		region := span(tiles, 100, n)
		if allocs := testing.AllocsPerRun(200, func() { eng.SeedOnly(table, region) }); allocs != 0 {
			t.Errorf("seeding a %d-tile region allocates %.1f times, want 0", n, allocs)
		}
	}
}
