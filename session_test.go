package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// sessionWalk drains a session, returning the concatenated pages and the
// per-page results.
func sessionWalk(t *testing.T, sess *Session) ([]Object, []*Result) {
	t.Helper()
	var (
		objs  []Object
		pages []*Result
	)
	for sess.More() {
		res, err := sess.Next(context.Background())
		if err != nil {
			t.Fatalf("page %d: %v", len(pages), err)
		}
		objs = append(objs, res.Objects...)
		pages = append(pages, res)
		if len(pages) > 10000 {
			t.Fatal("session walk does not terminate")
		}
	}
	return objs, pages
}

// TestSessionWalkEqualsFresh requires a session walk to return exactly the
// unpaged result, with every page beyond the first seeded at the owners the
// first page's descent found (descents saved) at a strictly lower message
// cost.
func TestSessionWalkEqualsFresh(t *testing.T) {
	net := pagedNetwork(t, 2500)
	ranges := []Range{{Low: 100, High: 900}}
	full, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}

	sess, err := net.OpenSession(NewRange(ranges, WithLimit(128)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	walked, pages := sessionWalk(t, sess)
	if !reflect.DeepEqual(walked, full.Objects) {
		t.Fatalf("session walk (%d objects over %d pages) diverged from the full result (%d objects)",
			len(walked), len(pages), len(full.Objects))
	}
	if len(pages) < 3 {
		t.Fatalf("population too sparse: only %d pages", len(pages))
	}
	if pages[0].Stats.DescentsSaved != 0 {
		t.Errorf("page 1 claims a saved descent on a cacheless network")
	}
	for i, p := range pages[1:] {
		if p.Stats.DescentsSaved != 1 {
			t.Errorf("page %d: DescentsSaved = %d, want 1", i+2, p.Stats.DescentsSaved)
		}
		if p.Stats.Messages >= pages[0].Stats.Messages {
			t.Errorf("page %d: %d messages, not below page 1's %d",
				i+2, p.Stats.Messages, pages[0].Stats.Messages)
		}
	}
	st := sess.Stats()
	if st.Pages != len(pages) || st.Objects != len(walked) {
		t.Errorf("session stats %+v disagree with %d pages / %d objects", st, len(pages), len(walked))
	}
	if st.DescentsSaved != len(pages)-1 {
		t.Errorf("DescentsSaved = %d, want %d (every page beyond the first)", st.DescentsSaved, len(pages)-1)
	}
	if st.FrontierHits != 0 {
		t.Errorf("FrontierHits = %d without a route cache", st.FrontierHits)
	}
}

// TestSessionFallbackAfterChurn forces churn mid-walk. A split behind the
// cursor costs the session nothing; a graceful leave of an owner still ahead
// of it sends the next page back to a full descent, which re-learns, and the
// remaining pages must still equal a fresh walk from the same cursor — byte
// for byte.
func TestSessionFallbackAfterChurn(t *testing.T) {
	net := pagedNetwork(t, 2000)
	// Inside one first symbol: the cascade splits that restore the invariant
	// around a split land on its Kautz neighbors, which start with another.
	ranges := []Range{{Low: 50, High: 300}}
	sess, err := net.OpenSession(NewRange(ranges, WithLimit(60)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	next := func() *Result {
		t.Helper()
		res, err := sess.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.NextOffsetID == "" {
			t.Fatal("walk ended early; population too sparse for the test")
		}
		return res
	}

	first := next()
	// Churn behind the cursor: the owner of page 1's first objects is
	// retired.
	if _, err := net.splitRegion(ownerOf(t, net, first.Objects[0].ID)); err != nil {
		t.Fatal(err)
	}
	second := next()
	if second.Stats.DescentsSaved != 1 {
		t.Error("churn behind the cursor cost the session a descent")
	}
	cursor := second.NextOffsetID
	// Churn ahead of it: the walk's last destination leaves (no crash, so
	// the object population is preserved exactly).
	if err := net.Leave(second.Destinations[len(second.Destinations)-1]); err != nil {
		t.Fatal(err)
	}

	rest, pages := sessionWalk(t, sess)
	if pages[0].Stats.DescentsSaved != 0 {
		t.Error("the page after a remaining owner left was seeded; that owner's tile should have been stale")
	}
	for i, p := range pages[1:] {
		if p.Stats.DescentsSaved != 1 {
			t.Errorf("post-churn page %d: DescentsSaved = %d, want 1 (re-learned owners)", i+2, p.Stats.DescentsSaved)
		}
	}

	fresh, err := net.Do(context.Background(), NewRange(ranges, WithOffsetID(cursor)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, fresh.Objects) {
		t.Fatalf("post-churn session pages (%d objects) diverged from a fresh walk from the same cursor (%d objects)",
			len(rest), len(fresh.Objects))
	}
}

// TestPagedWalkInterleavedMutations is the cursor-stability property test:
// a paged walk — plain Do pages and session pages alike — interleaved with
// publishes and unpublishes between pages never duplicates any object and
// never skips a survivor (an object present before the walk and untouched
// throughout it).
func TestPagedWalkInterleavedMutations(t *testing.T) {
	for _, mode := range []string{"do", "session"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				testInterleavedWalk(t, mode, seed)
			})
		}
	}
}

func testInterleavedWalk(t *testing.T, mode string, seed int64) {
	net, err := NewNetwork(200, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 977))
	type rec struct {
		name  string
		value float64
	}
	var live []rec
	pubs := make([]Publication, 900)
	for i := range pubs {
		r := rec{name: fmt.Sprintf("base-%04d", i), value: rng.Float64() * 1000}
		pubs[i] = Publication{Name: r.name, Values: []float64{r.value}}
		live = append(live, r)
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	survivors := make(map[string]bool, len(live))
	for _, r := range live {
		survivors[r.name] = true
	}

	ranges := []Range{{Low: 0, High: 1000}}
	var sess *Session
	if mode == "session" {
		if sess, err = net.OpenSession(NewRange(ranges, WithLimit(64))); err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
	}

	seen := make(map[string]int)
	offset := ""
	for page := 0; ; page++ {
		var res *Result
		if sess != nil {
			if !sess.More() {
				break
			}
			res, err = sess.Next(context.Background())
		} else {
			opts := []QueryOption{WithLimit(64)}
			if offset != "" {
				opts = append(opts, WithOffsetID(offset))
			}
			res, err = net.Do(context.Background(), NewRange(ranges, opts...))
		}
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		for _, o := range res.Objects {
			seen[o.Name]++
		}
		if res.NextOffsetID == "" && sess == nil {
			break
		}
		offset = res.NextOffsetID

		// Mutate between pages: one fresh publish, one unpublish of a
		// random still-live base object (which stops being a survivor).
		mid := rec{name: fmt.Sprintf("mid-%d-%04d", seed, page), value: rng.Float64() * 1000}
		if err := net.Publish(mid.name, mid.value); err != nil {
			t.Fatal(err)
		}
		if len(live) > 0 {
			i := rng.Intn(len(live))
			r := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := net.Unpublish(r.name, r.value); err != nil {
				t.Fatalf("unpublish %q: %v", r.name, err)
			}
			delete(survivors, r.name)
		}
		if page > 5000 {
			t.Fatal("walk does not terminate")
		}
	}

	for name, n := range seen {
		if n > 1 {
			t.Errorf("object %q returned %d times; a paged walk must never duplicate", name, n)
		}
	}
	for name := range survivors {
		if seen[name] == 0 {
			t.Errorf("survivor %q skipped by the walk", name)
		}
	}
}

// cachedNetwork builds a seeded network with the given options and 1,500
// objects at uniform values (two attributes: the second in [0, 100]).
func cachedNetwork(t *testing.T, peers int, seed int64, opts ...Option) (*Network, []Publication) {
	t.Helper()
	net, err := NewNetwork(peers, append([]Option{WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pubs := make([]Publication, 1500)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%05d", i), Values: []float64{rng.Float64() * 1000, rng.Float64() * 100}[:net.Attributes()]}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	return net, pubs
}

// TestFrontierCacheHitOnRepeat checks the route cache end to end, sized
// through the deprecated option: a repeated range query is seeded from what
// its first descent taught (hit, saved descent, identical objects, cheaper
// messages), a destination leaving invalidates its entry (fallback, no hit,
// still correct), and the re-learned owners serve hits again.
func TestFrontierCacheHitOnRepeat(t *testing.T) {
	net, _ := cachedNetwork(t, 300, 7, WithFrontierCache(64))
	q := NewRange([]Range{{Low: 300, High: 420}})
	do := func(step string, wantHit int) *Result {
		t.Helper()
		res, err := net.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Stats; s.FrontierHits != wantHit || s.ShortcutHits != wantHit || s.DescentsSaved != wantHit {
			t.Fatalf("%s: %+v; want hit = %d", step, s, wantHit)
		}
		return res
	}
	first := do("cold cache", 0)
	second := do("repeat", 1)
	if !reflect.DeepEqual(second.Objects, first.Objects) {
		t.Fatal("cache-seeded query returned different objects")
	}
	if second.Stats.Messages >= first.Stats.Messages {
		t.Errorf("cache-seeded query cost %d messages, descent cost %d", second.Stats.Messages, first.Stats.Messages)
	}
	if err := net.Leave(first.Destinations[1]); err != nil {
		t.Fatal(err)
	}
	if third := do("after a destination left", 0); !reflect.DeepEqual(stripPeers(third.Objects), stripPeers(first.Objects)) {
		t.Fatal("post-churn fallback returned different objects")
	}
	do("re-learned", 1)

	cs, ok := net.ShortcutTableStats()
	if !ok || cs.Hits != 2 || cs.Misses != 2 || cs.Capacity != 64 {
		t.Errorf("cache stats = %+v, %v; want 2 hits, 2 misses, capacity 64", cs, ok)
	}
}

// TestSessionPageOneCacheHit: a session on a cached network whose region
// was already descended is seeded even on its first page, and the walk then
// runs on the owners the session adopted, not on the cache.
func TestSessionPageOneCacheHit(t *testing.T) {
	net, _ := cachedNetwork(t, 250, 9, WithShortcutTable(64))
	ranges := []Range{{Low: 200, High: 380}}
	full, err := net.Do(context.Background(), NewRange(ranges)) // warms the cache
	if err != nil {
		t.Fatal(err)
	}

	sess, err := net.OpenSession(NewRange(ranges, WithLimit(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	walked, pages := sessionWalk(t, sess)
	if !reflect.DeepEqual(walked, full.Objects) || len(pages) < 3 {
		t.Fatalf("cached session walk (%d pages) diverged from the unpaged result", len(pages))
	}
	if st := sess.Stats(); st.DescentsSaved != len(pages) || st.FrontierHits != 1 || pages[0].Stats.FrontierHits != 1 {
		t.Errorf("session stats %+v over %d pages; want every page seeded, page 1 alone from the cache", st, len(pages))
	}
}

// TestFrontierCacheMIRABoundsGuard: on a multi-attribute network the
// descent's box predicate prunes destinations outside the query box, so what
// a narrow box's descent taught must not seed a query whose box is wider —
// even when the Kautz regions cover. The wider query must descend in full
// and find everything; the narrow one inside it is then seeded.
func TestFrontierCacheMIRABoundsGuard(t *testing.T) {
	net, pubs := cachedNetwork(t, 300, 13, WithShortcutTable(256),
		WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: 0, High: 100}))
	narrow := []Range{{Low: 200, High: 320}, {Low: 40, High: 50}}
	first, err := net.Do(context.Background(), NewRange(narrow))
	if err != nil {
		t.Fatal(err)
	}
	// Same first attribute, wider second: whatever the regions share, the
	// narrow box's owners must not serve it.
	wide := []Range{{Low: 200, High: 320}, {Low: 20, High: 70}}
	res, err := net.Do(context.Background(), NewRange(wide))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DestPeers <= first.Stats.DestPeers || res.Stats.DescentsSaved != 0 {
		t.Fatalf("wide box: %+v after the narrow box's %+v; want more destinations, reached by a descent", res.Stats, first.Stats)
	}
	want := 0
	for _, p := range pubs {
		if p.Values[0] >= 200 && p.Values[0] <= 320 && p.Values[1] >= 20 && p.Values[1] <= 70 {
			want++
		}
	}
	if len(res.Objects) != want {
		t.Fatalf("wide query found %d objects, brute force %d", len(res.Objects), want)
	}

	// The converse reuse is sound and must work: narrow inside wide, at the
	// destinations its own descent reached and no others.
	again, err := net.Do(context.Background(), NewRange(narrow))
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.FrontierHits != 1 || !reflect.DeepEqual(again.Destinations, first.Destinations) || !reflect.DeepEqual(again.Objects, first.Objects) {
		t.Errorf("narrow box inside the learned wide one: %+v at %d destinations, its descent reached %d", again.Stats, len(again.Destinations), len(first.Destinations))
	}
}

// TestOpenSessionValidation covers the session API's error surface.
func TestOpenSessionValidation(t *testing.T) {
	net := pagedNetwork(t, 60)
	cases := []struct {
		name string
		q    Query
	}{
		{"lookup", NewLookup("obj-00001", WithLimit(5))},
		{"top-k", NewRange([]Range{{0, 1000}}, WithTopK(3), WithLimit(5))},
		{"flood", NewRange([]Range{{0, 1000}}, WithFlood(), WithLimit(5))},
		{"no limit", NewRange([]Range{{0, 1000}})},
		{"negative limit", NewRange([]Range{{0, 1000}}, WithLimit(-2))},
	}
	for _, c := range cases {
		if _, err := net.OpenSession(c.q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", c.name, err)
		}
	}
	if _, err := net.OpenSession(NewRange([]Range{{0, 1000}},
		WithLimit(5), WithIssuer("no-such-peer"))); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("nonexistent issuer: err = %v, want ErrNoSuchPeer", err)
	}

	sess, err := net.OpenSession(NewRange([]Range{{0, 1000}}), WithLimit(1000))
	if err != nil {
		t.Fatalf("options passed to OpenSession not applied: %v", err)
	}
	sessionWalk(t, sess)
	if sess.More() {
		t.Error("More() true after the final page")
	}
	if _, err := sess.Next(context.Background()); !errors.Is(err, ErrSessionDone) {
		t.Errorf("Next after the final page: err = %v, want ErrSessionDone", err)
	}
	sess.Close()
	sess.Close() // idempotent
	if _, err := sess.Next(context.Background()); !errors.Is(err, ErrSessionDone) {
		t.Errorf("Next after Close: err = %v, want ErrSessionDone", err)
	}
}

// TestStreamReusesFrontierCache: streamed range queries participate in the
// route cache on both sides — a stream's descent teaches it for later
// queries, and a stream over an already-descended region is seeded from it
// instead of walking the FRT again.
func TestStreamReusesFrontierCache(t *testing.T) {
	net, _ := cachedNetwork(t, 250, 11, WithShortcutTable(64))
	q := NewRange([]Range{{Low: 300, High: 450}})
	stream := func() []Object {
		t.Helper()
		var got []Object
		for o, err := range net.Stream(context.Background(), q) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, o)
		}
		return got
	}

	first := stream() // cold: descends, and must teach the cache
	seeded, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Stats.FrontierHits != 1 || !reflect.DeepEqual(first, seeded.Objects) {
		t.Fatalf("Do after a stream: %+v, %d objects against the stream's %d — the stream did not teach the cache", seeded.Stats, len(seeded.Objects), len(first))
	}
	before, _ := net.ShortcutTableStats()
	second := stream() // warm: must be seeded rather than descend again
	if after, _ := net.ShortcutTableStats(); after.Hits != before.Hits+1 || !reflect.DeepEqual(second, first) {
		t.Fatalf("warm stream: cache %+v -> %+v, %d objects against %d", before, after, len(second), len(first))
	}
}

// A session page costs what its own deliveries cost, not what the walk
// before it cost: every page after the first is seeded at the owners the
// session kept through the pooled message queue, so allocations per page stay
// flat in the page index (and shrink as destinations retire) instead of
// growing with it.
func TestSessionPageAllocsFlat(t *testing.T) {
	net, err := NewNetwork(1000, WithSeed(111))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	pubs := make([]Publication, 4000)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{float64(i) * 0.25}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Per page, the least of several walks: a page that found the engine's
	// state pool empty — under the race detector sync.Pool drops a share of
	// what it is given — rebuilds its buffers, which is not the page's cost.
	var perPage []uint64
	for walk := 0; walk < 6; walk++ {
		sess, err := net.OpenSession(NewRange([]Range{{Low: 100, High: 600}}, WithLimit(64)))
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		for page := 0; sess.More(); page++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			res, err := sess.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			switch n := ms.Mallocs - before; {
			case res.NextOffsetID == "": // the short final page is not comparable
			case walk == 0:
				perPage = append(perPage, n)
			default:
				perPage[page] = min(perPage[page], n)
			}
		}
		sess.Close()
	}
	if len(perPage) < 20 {
		t.Fatalf("walk had only %d full pages", len(perPage))
	}
	// Page 1 descends; compare the seeded pages among
	// themselves, with slack for the destinations a page happens to span.
	early, late := perPage[1], perPage[len(perPage)-1]
	if late > early+8 {
		t.Fatalf("allocations per page grew along the walk: page 2 = %d, page %d = %d (all: %v)",
			early, len(perPage), late, perPage)
	}
	t.Logf("allocations per page: %v", perPage)
}

// TestWalkCostNearDo bounds what paging costs over materialising: a session
// walk returns the objects one Do returns, page by page, and a page scans
// and copies only what it returns — so the whole walk may allocate at most
// twice the bytes of the one-shot query (it pays the per-page fixed costs:
// destination lists, result headers, the page's one-slot tie headroom).
func TestWalkCostNearDo(t *testing.T) {
	net, err := NewNetwork(500, WithSeed(117))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	pubs := make([]Publication, 30000)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("o%d", i), Values: []float64{float64(i) / 30}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := NewRange([]Range{{Low: 400, High: 460}}, WithIssuer(net.PeerIDs()[7]))
	allocated := func(f func() int) (objects int, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = f()
		runtime.ReadMemStats(&after)
		return objects, after.TotalAlloc - before.TotalAlloc
	}
	doObjects, doBytes := allocated(func() int {
		res, err := net.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Objects)
	})
	walkObjects, walkBytes := allocated(func() (n int) {
		sess, err := net.OpenSession(q, WithLimit(256))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for sess.More() {
			res, err := sess.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			n += len(res.Objects)
		}
		return n
	})
	if doObjects < 1500 || walkObjects != doObjects {
		t.Fatalf("walk returned %d objects, Do %d (want equal, ≥ 1500)", walkObjects, doObjects)
	}
	if walkBytes > 2*doBytes {
		t.Fatalf("a walk of %d objects allocated %d B, %.1f× the %d B of the materialising Do (limit 2×)",
			walkObjects, walkBytes, float64(walkBytes)/float64(doBytes), doBytes)
	}
	t.Logf("%d objects: Do %d B, walk %d B (%.2f×)", doObjects, doBytes, walkBytes, float64(walkBytes)/float64(doBytes))
}
