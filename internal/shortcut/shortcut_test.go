package shortcut

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

const k = 20

// world is a random network with an engine over attrs attributes, each
// spanning [0, 1000], and a few hundred published objects.
type world struct {
	net  *fissione.Network
	tree *naming.Tree
	eng  *core.Engine
}

func newWorld(t testing.TB, peers, attrs int, seed int64) world {
	t.Helper()
	net, err := fissione.BuildRandom(k, peers, seed)
	if err != nil {
		t.Fatal(err)
	}
	spaces := make([]naming.Space, attrs)
	for a := range spaces {
		spaces[a] = naming.Space{Low: 0, High: 1000}
	}
	tree, err := naming.NewTree(k, spaces...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 3*peers; i++ {
		v := make([]float64, attrs)
		for a := range v {
			v[a] = rng.Float64() * 1000
		}
		oid, err := tree.Hash(v...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: fmt.Sprint("o", i), Values: v}); err != nil {
			t.Fatal(err)
		}
	}
	return world{net, tree, eng}
}

// query runs one range query through the table and returns its result.
func (w world) query(t testing.TB, tb core.Router, lo, hi []float64, opts ...core.QueryOption) *core.RangeResult {
	t.Helper()
	res, err := w.eng.RangeQuery(context.Background(), w.net.PeerIDs()[0], lo, hi, append(opts, core.WithRouter(tb))...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tile(slot int32, id kautz.Str) core.Tile { return core.Tile{Slot: slot, ID: id} }

func TestLearnRouteSingleOwner(t *testing.T) {
	tb := NewTable(8)
	tb.Learn([]core.Tile{tile(5, "01")})
	if !tb.Knows(tile(5, "01")) {
		t.Fatal("a learned owner is not known")
	}
	// Another name in the slot, the name in another slot, a slot beyond
	// anything learned: none is that owner.
	for _, other := range []core.Tile{tile(5, "012"), tile(4, "01"), tile(900, "01")} {
		if tb.Knows(other) {
			t.Fatalf("%+v is known after learning only 01 in slot 5", other)
		}
	}
	tb.Note(true)
	tb.Note(false)
	if st := tb.Stats(); st != (Stats{Hits: 1, Misses: 1, Entries: 1, Capacity: 8}) {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry of 8", st)
	}
	if NewTable(0).Stats().Capacity != 1 {
		t.Fatal("capacity floor is 1")
	}
}

// TestRouteTilesMultipleOwners: once a descent has taught the table a range's
// owners, the range — and any lookup or narrower range under them — is seeded
// at exactly the destinations the descent reached.
func TestRouteTilesMultipleOwners(t *testing.T) {
	w, tb := newWorld(t, 120, 1, 3), NewTable(64)
	lo, hi := []float64{300}, []float64{420}
	cold := w.query(t, tb, lo, hi)
	if cold.Stats.DescentsSaved != 0 || cold.Stats.DestPeers < 3 || tb.Stats().Entries != cold.Stats.DestPeers {
		t.Fatalf("cold query: %+v with %d entries learned; want a descent over ≥ 3 owners, all learned", cold.Stats, tb.Stats().Entries)
	}
	for _, q := range [][2]float64{{300, 420}, {330, 400}, {350, 350}} {
		warm := w.query(t, tb, q[:1], q[1:])
		fresh := w.query(t, NewTable(1), q[:1], q[1:])
		if warm.Stats.DescentsSaved != 1 || !reflect.DeepEqual(warm.Destinations, fresh.Destinations) || !reflect.DeepEqual(warm.Matches, fresh.Matches) {
			t.Fatalf("[%v, %v]: seeded %+v at %v, descent reached %v", q[0], q[1], warm.Stats, warm.Destinations, fresh.Destinations)
		}
	}
}

// TestRouteGapIsOneMiss: one unknown owner among a range's destinations is a
// miss at the descent's plain cost, and that descent fills the gap.
func TestRouteGapIsOneMiss(t *testing.T) {
	w, tb := newWorld(t, 120, 1, 5), NewTable(64)
	lo, hi := []float64{500}, []float64{640}
	cold := w.query(t, tb, lo, hi)
	gap, _ := w.net.Slot(cold.Destinations[1])
	holed := NewTable(64)
	for _, id := range cold.Destinations {
		if slot, _ := w.net.Slot(id); slot != gap {
			holed.Learn([]core.Tile{tile(slot, id)})
		}
	}
	miss := w.query(t, holed, lo, hi)
	if miss.Stats.DescentsSaved != 0 || miss.Stats.Messages != cold.Stats.Messages {
		t.Fatalf("a tiling with a hole cost %+v, the plain descent %+v", miss.Stats, cold.Stats)
	}
	if hit := w.query(t, holed, lo, hi); hit.Stats.DescentsSaved != 1 || !holed.Knows(tile(gap, cold.Destinations[1])) {
		t.Fatalf("the miss's descent did not fill the gap: %+v", hit.Stats)
	}
}

// TestLRUEviction: over capacity the table evicts by second chance — owners
// used since the hand last passed them survive, the first unused one goes.
func TestLRUEviction(t *testing.T) {
	tb := NewTable(3)
	a, b, c, d, e := tile(0, "0"), tile(1, "10"), tile(2, "12"), tile(3, "20"), tile(4, "21")
	tb.Learn([]core.Tile{a, b, c})
	tb.Knows(a)
	tb.Learn([]core.Tile{c}) // relearning is a use too
	tb.Learn([]core.Tile{d}) // the hand clears a's bit, evicts b
	if !tb.Knows(a) || tb.Knows(b) || !tb.Knows(c) || !tb.Knows(d) {
		t.Fatalf("after learning a fourth owner: a %v b %v c %v d %v; want b evicted", tb.Knows(a), tb.Knows(b), tb.Knows(c), tb.Knows(d))
	}
	tb.Learn([]core.Tile{e}) // c was used before the hand's last pass only
	if tb.Knows(c) || !tb.Knows(e) {
		t.Fatal("the hand did not move on to c")
	}
	if st := tb.Stats(); st.Evicted != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v; want 2 evictions, 3 entries", st)
	}
}

// TestStaleEntriesDroppedOnSight: a slot holds one entry. Learning the owner
// that now carries the slot replaces the one that left it on sight, in place.
func TestStaleEntriesDroppedOnSight(t *testing.T) {
	tb := NewTable(2)
	tb.Learn([]core.Tile{tile(7, "0120"), tile(8, "0121")})
	tb.Learn([]core.Tile{tile(7, "012")}) // 0121 left, its sibling took the parent's name
	if tb.Knows(tile(7, "0120")) || !tb.Knows(tile(7, "012")) || !tb.Knows(tile(8, "0121")) {
		t.Fatal("relearning slot 7 did not replace exactly its entry")
	}
	if st := tb.Stats(); st.Stale != 1 || st.Evicted != 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 stale, no eviction, 2 entries", st)
	}
}

func TestLearnRejectsBadOwners(t *testing.T) {
	tb := NewTable(8)
	tb.Learn([]core.Tile{tile(-1, "01"), tile(3, "")})
	if st := tb.Stats(); st.Entries != 0 || tb.Knows(tile(-1, "01")) || tb.Knows(tile(3, "")) {
		t.Fatalf("bad owners entered the table: %+v", st)
	}
}

// TestLongestPrefixWins: a split renames its slot to the longer identifier,
// so the entry learned under the parent's name stops answering: the query
// over the region descends once, learns both children, and is seeded at them.
func TestLongestPrefixWins(t *testing.T) {
	w, tb := newWorld(t, 120, 1, 7), NewTable(64)
	lo, hi := []float64{200}, []float64{320}
	cold := w.query(t, tb, lo, hi)
	parent := cold.Destinations[1]
	if _, _, _, err := w.net.SplitRegion(parent); err != nil {
		t.Fatal(err)
	}
	miss := w.query(t, tb, lo, hi)
	if miss.Stats.DescentsSaved != 0 || miss.Stats.DestPeers <= cold.Stats.DestPeers {
		t.Fatalf("after %s split: %+v; want a descent over more owners than the %d learned", parent, miss.Stats, cold.Stats.DestPeers)
	}
	hit := w.query(t, tb, lo, hi)
	if hit.Stats.DescentsSaved != 1 || !reflect.DeepEqual(hit.Destinations, miss.Destinations) || slices.Contains(hit.Destinations, parent) {
		t.Fatalf("relearned query: %+v at %v; want it seeded at the children of %s", hit.Stats, hit.Destinations, parent)
	}
}

// TestMaxTargetsBoundsFanOut: what bounds a seeding is the owners it walks
// past, not those it delivers to. Under a box the walk passes over the owners
// the box does not meet, seedSkip of them at most — a sparse box descends
// however much was learned — and an unboxed region is seeded however wide.
func TestMaxTargetsBoundsFanOut(t *testing.T) {
	for attrs := 1; attrs <= 2; attrs++ {
		w := newWorld(t, 400, attrs, int64(70+attrs))
		all := NewTable(1 << 10)
		for _, id := range w.net.PeerIDs() {
			slot, _ := w.net.Slot(id)
			all.Learn([]core.Tile{tile(slot, id)})
		}
		rng := rand.New(rand.NewSource(int64(attrs)))
		outcomes := [2]int{}
		for trial := 0; trial < 40; trial++ {
			lo, hi := make([]float64, attrs), make([]float64, attrs)
			for a := range lo {
				lo[a] = rng.Float64() * 500
				hi[a] = lo[a] + 200 + rng.Float64()*300
			}
			if attrs == 2 {
				hi[1] = lo[1] + 15 // a sliver of the second attribute
			}
			box, _ := w.tree.NewBox(lo, hi)
			region, _ := w.tree.QueryRegion(box)
			skipped := 0
			for _, id := range w.net.PeerIDs() {
				if meets, _ := w.tree.IntersectsPrefix(id, box); region.ContainsPrefix(id) && !meets {
					skipped++
				}
			}
			want := 1
			if attrs == 2 && skipped > seedSkip {
				want = 0
			}
			if res := w.query(t, all, lo, hi); res.Stats.DescentsSaved != want {
				t.Fatalf("attrs %d trial %d: %d owners to skip, DescentsSaved = %d (want %d)", attrs, trial, skipped, res.Stats.DescentsSaved, want)
			}
			outcomes[want]++
		}
		if outcomes[1] == 0 || (attrs == 2) != (outcomes[0] > 0) {
			t.Fatalf("attrs %d: %d descents, %d seeded; want both outcomes under a box, seeding only without", attrs, outcomes[0], outcomes[1])
		}
	}
}

// byName is the route cache as it was first kept — learned owners resolved
// by name, a query's region matched position by position to the longest
// learned prefix — and the differential reference for the slot-indexed table
// under the engine's trie-order walk. It holds what each slot was last
// learned as, as the table does; a name counts while a live peer carries it
// in that slot.
type byName struct {
	w       world
	learned map[int32]kautz.Str
}

func (r byName) fresh(id kautz.Str) bool {
	slot, ok := r.w.net.Slot(id)
	return ok && r.learned[slot] == id
}

// tiling longest-prefix matches the region from Low to High.
func (r byName) tiling(region kautz.Region) (owners []kautz.Str, ok bool) {
	for cur := region.Low; ; {
		l := len(cur) - 1
		for l > 0 && !r.fresh(cur[:l]) {
			l--
		}
		if l == 0 {
			return nil, false
		}
		owners = append(owners, cur[:l])
		high := kautz.MaxExtend(cur[:l], k)
		if high >= region.High {
			return owners, true
		}
		cur, _ = kautz.Succ(high)
	}
}

// seedSkip is the engine's bound on the owners one seeding walks past.
const seedSkip = 64

// boxed is the reference under a box: every live owner the region and the
// box both meet must be a learned name, and at most seedSkip may lie between
// them.
func (r byName) boxed(region kautz.Region, box naming.Box) (owners []kautz.Str, ok bool) {
	spanned := 0
	for _, id := range r.w.net.PeerIDs() {
		if !region.ContainsPrefix(id) {
			continue
		}
		spanned++
		if meets, _ := r.w.tree.IntersectsPrefix(id, box); meets {
			if !r.fresh(id) {
				return nil, false
			}
			owners = append(owners, id)
		}
	}
	return owners, spanned-len(owners) <= seedSkip
}

// both teaches the table and the reference alike and checks every answer.
type both struct {
	t   *testing.T
	tb  *Table
	ref byName
}

func (b both) Knows(tl core.Tile) bool {
	got := b.tb.Knows(tl)
	if want := b.ref.learned[tl.Slot] == tl.ID; got != want {
		b.t.Errorf("Knows(%+v) = %v, reference %v", tl, got, want)
	}
	return got
}

func (b both) Learn(owners []core.Tile) {
	b.tb.Learn(owners)
	for _, o := range owners {
		b.ref.learned[o.Slot] = o.ID
	}
}

// TestSeedingMatchesLongestPrefixReference drives lookups, ranges and cursored
// pages over one and two attributes through joins, leaves, crashes and
// splits, and requires the engine's walk over the table to seed exactly when
// — and at exactly the owners where — longest-prefix matching over the
// learned names tiles the query.
func TestSeedingMatchesLongestPrefixReference(t *testing.T) {
	for attrs := 1; attrs <= 2; attrs++ {
		w := newWorld(t, 200, attrs, int64(40+attrs))
		rt := both{t, NewTable(1 << 12), byName{w, map[int32]kautz.Str{}}}
		rng := rand.New(rand.NewSource(int64(attrs)))
		seeded := 0
		for step := 0; step < 1500; step++ {
			if step%4 == 3 {
				switch rng.Intn(4) {
				case 0:
					w.net.Join()
				case 1:
					w.net.Leave(w.net.PeerIDAt(rng.Intn(w.net.Size())))
				case 2:
					w.net.FailAbrupt(w.net.PeerIDAt(rng.Intn(w.net.Size())))
				case 3:
					w.net.SplitRegion(w.net.PeerIDAt(rng.Intn(w.net.Size())))
				}
				continue
			}
			// Hot keys: a small grid of boxes, so queries repeat.
			lo, hi := make([]float64, attrs), make([]float64, attrs)
			for a := range lo {
				lo[a] = float64(rng.Intn(8)) * 120
				hi[a] = lo[a] + []float64{0, 30, 110}[rng.Intn(3)]
			}
			box, _ := w.tree.NewBox(lo, hi)
			region, _ := w.tree.QueryRegion(box)
			var opts []core.QueryOption
			if rng.Intn(3) == 0 { // a later page: the cursor clips the region
				mid := kautz.Random(rng, k)
				if mid >= region.Low && mid < region.High {
					opts = append(opts, core.WithAfter(mid))
					region.Low, _ = kautz.Succ(mid)
				}
			}
			want, ok := rt.ref.tiling(region)
			if attrs > 1 {
				want, ok = rt.ref.boxed(region, box)
			}
			res := w.query(t, rt, lo, hi, opts...)
			if (res.Stats.DescentsSaved == 1) != ok {
				t.Fatalf("attrs %d step %d: DescentsSaved = %d, reference tiles %v: %v", attrs, step, res.Stats.DescentsSaved, ok, want)
			}
			if ok && !(len(want) == 0 && len(res.Destinations) == 0) && !reflect.DeepEqual(res.Destinations, want) {
				t.Fatalf("attrs %d step %d: seeded at %v, reference tiles %v", attrs, step, res.Destinations, want)
			}
			seeded += res.Stats.DescentsSaved
		}
		if seeded < 300 {
			t.Fatalf("attrs %d: only %d of ~1100 queries seeded; the test exercises little", attrs, seeded)
		}
		if err := w.net.Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentHitsAndLearns runs seeded queries, descents that learn and
// evictions at once; run with -race. Results stay those of a plain descent.
func TestConcurrentHitsAndLearns(t *testing.T) {
	w, tb := newWorld(t, 300, 1, 9), NewTable(24)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				lo := float64(rng.Intn(12)) * 80
				issuer := w.net.PeerIDAt(rng.Intn(w.net.Size()))
				warm, err := w.eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + 25}, core.WithRouter(tb))
				if err != nil {
					t.Error(err)
					return
				}
				fresh, _ := w.eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + 25})
				if !reflect.DeepEqual(warm.Matches, fresh.Matches) {
					t.Errorf("[%v, %v]: result diverged from the plain descent", lo, lo+25)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := tb.Stats(); st.Evicted == 0 || st.Entries > st.Capacity {
		t.Fatalf("stats = %+v; want evictions and a bounded table", st)
	}
}
