package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// TestSessionFailedPageIsRetried: a page that fails — here on a cancelled
// context, the first page before it located anything and a positional one
// before its message left — moves neither the cursor nor the walk's position,
// and the retried walk returns exactly the unpaged result.
func TestSessionFailedPageIsRetried(t *testing.T) {
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
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var walked []Object
	for page := 0; sess.More(); page++ {
		if page < 3 {
			if _, err := sess.Next(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("page %d under a cancelled context: %v", page+1, err)
			}
		}
		res, err := sess.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, res.Objects...)
	}
	if st := sess.Stats(); !reflect.DeepEqual(walked, full.Objects) || st.Pages*128 < len(walked) || st.DescentsSaved != st.Pages-1 {
		t.Fatalf("the retried walk returned %d objects in %+v, the unpaged query %d", len(walked), st, len(full.Objects))
	}
}

// TestSessionFallbackAfterChurn forces churn mid-walk. A split behind the
// cursor costs the session nothing; a graceful leave of the owner under the
// cursor sends the next page back to a full descent over the remainder, which
// re-learns, and the remaining pages must still equal a fresh walk from the
// same cursor — byte for byte.
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
	if _, _, err := net.splitRegion(ownerOf(t, net, first.Objects[0].ID)); err != nil {
		t.Fatal(err)
	}
	second := next()
	if second.Stats.DescentsSaved != 1 {
		t.Error("churn behind the cursor cost the session a descent")
	}
	cursor := second.NextOffsetID
	// Churn under it: the last owner the page addressed — the cursor's, or
	// the one the probe for a next page ran on into — leaves (no crash, so the
	// object population is preserved exactly).
	if err := net.Leave(second.Destinations[len(second.Destinations)-1]); err != nil {
		t.Fatal(err)
	}

	rest, pages := sessionWalk(t, sess)
	if pages[0].Stats.DescentsSaved != 0 {
		t.Error("the page after the cursor's owner left was positional; that owner's tile should have been stale")
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

// TestPositionalWalkExactUnderChurn is the exactness table of the positional
// cursor: PIRA and MIRA, replication degree 1 and 2, four seeded worlds, with
// and without the route cache. In each world one network lives through
// the whole list of events; for each event a fresh session walks three pages,
// the event strikes — the tile under the cursor or one ahead of it split,
// left or crashed, a peer joined inside the remainder, the replication degree
// changed, objects were published and unpublished on both sides of the cursor —
// and the remaining pages must equal a fresh Do from the same cursor byte for
// byte, on an Audit-clean network, every page whose tiles survived having
// sent at most three messages.
func TestPositionalWalkExactUnderChurn(t *testing.T) {
	// A world's label is the read policy it ran when one was chosen per
	// query; it is kept so the subtests keep their names and seeds. Every
	// world now reads by the one replica rule.
	worlds := []string{"default", "primary", "round-robin", "least-loaded"}
	for _, attrs := range []int{1, 2} {
		for _, k := range []int{1, 2} {
			for w, label := range worlds {
				for _, cached := range []bool{false, true} {
					t.Run(fmt.Sprintf("attrs=%d/k=%d/%s/cache=%v", attrs, k, label, cached), func(t *testing.T) {
						testPositionalWalkUnderChurn(t, attrs, k, int64(attrs*1000+k*100+w*10), cached)
					})
				}
			}
		}
	}
}

func testPositionalWalkUnderChurn(t *testing.T, attrs, k int, seed int64, cached bool) {
	const pageSize = 16
	ctx := context.Background()
	opts := []Option{WithSeed(seed), WithReplication(k)}
	if attrs == 2 {
		opts = append(opts, WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: 0, High: 100}))
	}
	if cached {
		opts = append(opts, WithShortcutTable(256))
	}
	net, err := NewNetwork(120, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(seed))
	values := func() []float64 { return []float64{rng.Float64() * 1000, rng.Float64() * 100}[:attrs] }
	pubs := make([]Publication, 6000)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%05d", i), Values: values()}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Low: 300, High: 620}, {Low: 5, High: 95}}[:attrs]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// ahead is the owner after the one holding the ObjectID id, in trie order.
	ahead := func(id string) string {
		ids := net.PeerIDs()
		return ids[(slices.Index(ids, ownerOf(t, net, id))+1)%len(ids)]
	}
	// around is the object the range admits nearest the cursor on the given
	// side: the last one the walk returned, or the first it has yet to reach.
	around := func(all []Object, cursor string, behind bool) Object {
		i, _ := slices.BinarySearchFunc(all, cursor, func(o Object, id string) int {
			if o.ID <= id {
				return -1
			}
			return 1
		})
		if behind {
			return all[i-1]
		}
		return all[i]
	}
	events := []struct {
		name   string
		strike func(all []Object, cursor string)
	}{
		{"split under the cursor", func(_ []Object, c string) { _, _, err := net.splitRegion(ownerOf(t, net, c)); must(err) }},
		{"split ahead", func(_ []Object, c string) { _, _, err := net.splitRegion(ahead(c)); must(err) }},
		{"leave under the cursor", func(_ []Object, c string) { must(net.Leave(ownerOf(t, net, c))) }},
		{"leave ahead", func(_ []Object, c string) { must(net.Leave(ahead(c))) }},
		{"crash under the cursor", func(_ []Object, c string) { must(net.Fail(ownerOf(t, net, c))) }},
		{"crash ahead", func(_ []Object, c string) { must(net.Fail(ahead(c))) }},
		{"join inside the remainder", func(all []Object, c string) {
			for i := 0; i < 200; i++ {
				id, err := net.Join()
				must(err)
				if id > ownerOf(t, net, c) && id < ownerOf(t, net, all[len(all)-1].ID) {
					return
				}
			}
			t.Fatal("200 joins, none inside the walk's remainder")
		}},
		{"replication degree", func([]Object, string) {
			net.mu.Lock()
			defer net.mu.Unlock()
			must(net.net.SetReplicas(3 - net.net.Replicas()))
		}},
		{"publish behind the cursor", func(all []Object, c string) { must(net.Publish("late-behind", around(all, c, true).Values...)) }},
		{"publish ahead of the cursor", func(all []Object, c string) { must(net.Publish("late-ahead", around(all, c, false).Values...)) }},
		{"unpublish behind the cursor", func(all []Object, c string) {
			o := around(all, c, true)
			must(net.Unpublish(o.Name, o.Values...))
		}},
		{"unpublish ahead of the cursor", func(all []Object, c string) {
			o := around(all, c, false)
			must(net.Unpublish(o.Name, o.Values...))
		}},
	}
	for _, ev := range events {
		q := NewRange(ranges, WithLimit(pageSize), WithIssuer(net.RandomPeer()))
		all, err := net.Do(ctx, NewRange(ranges))
		must(err)
		sess, err := net.OpenSession(q)
		must(err)
		var cursor string
		for page := 0; page < 3; page++ {
			res, err := sess.Next(ctx)
			must(err)
			if cursor = res.NextOffsetID; cursor == "" {
				t.Fatalf("%s: the walk ended on page %d", ev.name, page+1)
			}
		}
		ev.strike(all.Objects, cursor)
		must(net.Audit())
		rest, pages := sessionWalk(t, sess)
		fresh, err := net.Do(ctx, NewRange(ranges, WithOffsetID(cursor)))
		must(err)
		if !reflect.DeepEqual(rest, fresh.Objects) {
			t.Fatalf("%s: the session's remaining %d pages (%d objects) diverged from a fresh Do from the same cursor (%d objects)",
				ev.name, len(pages), len(rest), len(fresh.Objects))
		}
		relocated := 0
		for i, p := range pages {
			switch s := p.Stats; {
			case s.DescentsSaved == 0 || s.ShortcutHits == 1:
				relocated++
			case s.Messages > 3 || s.Messages != len(p.Destinations) || s.Delay != 1:
				t.Errorf("%s: positional page %d of the rest: %+v over %v, want at most 3 messages, one an owner", ev.name, i+1, s, p.Destinations)
			}
		}
		if relocated > 2 {
			t.Errorf("%s: %d of the remaining %d pages re-located", ev.name, relocated, len(pages))
		}
		if last := pages[len(pages)-1]; last.NextOffsetID != "" || len(last.Objects) == 0 {
			t.Errorf("%s: the last page holds %d objects and the cursor %q", ev.name, len(last.Objects), last.NextOffsetID)
		}
	}
}

// TestSessionPageFillsAtTileEnd is the page-boundary case of the positional
// cursor: every owner in the range holds exactly one page of objects, so every
// page fills exactly at the end of a tile. The probe for a next page must then
// cross into the next tile — the page addresses the cursor's own (drained)
// tile, the one it fills from and the one that proves there is more, three
// messages — and the true last page, which has no tile to cross into, must
// carry no cursor.
func TestSessionPageFillsAtTileEnd(t *testing.T) {
	const perOwner = 8
	net, err := NewNetwork(60, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	held := make(map[string]int)
	for v := 200.0; v <= 600; v += 0.01 {
		oid, err := net.tree.Hash(v)
		if err != nil {
			t.Fatal(err)
		}
		if owner := ownerOf(t, net, string(oid)); held[owner] < perOwner {
			held[owner]++
			if err := net.Publish(fmt.Sprintf("o-%.2f", v), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for owner, n := range held {
		if n != perOwner {
			t.Fatalf("owner %s holds %d objects of the range, want %d", owner, n, perOwner)
		}
	}
	ranges := []Range{{Low: 200, High: 600}}
	full, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil || len(full.Objects) != perOwner*len(held) || len(held) < 8 {
		t.Fatalf("the range holds %d objects on %d owners (%v)", len(full.Objects), len(held), err)
	}
	sess, err := net.OpenSession(NewRange(ranges, WithLimit(perOwner)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	walked, pages := sessionWalk(t, sess)
	if !reflect.DeepEqual(walked, full.Objects) || len(pages) != len(held) {
		t.Fatalf("%d pages of %d objects over %d owners of %d each", len(pages), len(walked), len(held), perOwner)
	}
	for i, p := range pages {
		last := i == len(pages)-1
		if len(p.Objects) != perOwner || (p.NextOffsetID == "") != last {
			t.Fatalf("page %d of %d: %d objects, cursor %q", i+1, len(pages), len(p.Objects), p.NextOffsetID)
		}
		if want := min(3, len(pages)-i+1); i > 0 && (p.Stats.Messages != want || p.Stats.DescentsSaved != 1) {
			t.Errorf("page %d of %d: %+v over %v, want %d messages: the drained tile, the page's own, the next", i+1, len(pages), p.Stats, p.Destinations, want)
		}
	}

	// Why the drained tile is addressed again: the cursor is its last object,
	// and an object published past the cursor lands in it.
	again, err := net.OpenSession(NewRange(ranges, WithLimit(perOwner)))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	var cursor Object
	for page := 0; page < 2; page++ {
		res, err := again.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cursor = res.Objects[len(res.Objects)-1]
	}
	if err := net.Publish("late", cursor.Values[0]+0.005); err != nil {
		t.Fatal(err)
	}
	rest, _ := sessionWalk(t, again)
	fresh, err := net.Do(context.Background(), NewRange(ranges, WithOffsetID(cursor.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, fresh.Objects) || rest[0].Name != "late" || ownerOf(t, net, rest[0].ID) != ownerOf(t, net, cursor.ID) {
		t.Fatalf("after a publish into the drained tile past the cursor the session returned %d objects from %v on, a fresh Do %d from %v on",
			len(rest), rest[0], len(fresh.Objects), fresh.Objects[0])
	}
}

// TestWalkFromPastRangeEnd: a session or stream whose first cursor is at or
// past the range's high end has nothing to locate. Its one page is the empty,
// zero-Stats result a Do from that cursor returns — no message, no saved
// descent, no route-cache hit — with and without a route cache.
func TestWalkFromPastRangeEnd(t *testing.T) {
	for _, cached := range []bool{false, true} {
		var opts []Option
		if cached {
			opts = append(opts, WithShortcutTable(64))
		}
		net, _ := cachedNetwork(t, 120, 5, opts...)
		defer net.Close()
		ranges := []Range{{Low: 300, High: 420}}
		if _, err := net.Do(context.Background(), NewRange(ranges)); err != nil { // teaches the cache the range's owners
			t.Fatal(err)
		}
		for _, v := range []float64{420, 1000} { // the region's High itself, and beyond it
			oid, err := net.tree.Hash(v)
			if err != nil {
				t.Fatal(err)
			}
			q := NewRange(ranges, WithLimit(10), WithOffsetID(string(oid)))
			want, err := net.Do(context.Background(), q)
			if err != nil || len(want.Objects) != 0 || want.Stats != (Stats{}) {
				t.Fatalf("cached=%v, Do from %v: %+v, %v; want an empty result", cached, v, want, err)
			}
			sess, err := net.OpenSession(q)
			if err != nil {
				t.Fatal(err)
			}
			page, err := sess.Next(context.Background())
			if err != nil || !reflect.DeepEqual(page, want) || sess.More() {
				t.Errorf("cached=%v, session from %v: page %+v, %v, more=%v; want Do's empty last page", cached, v, page, err, sess.More())
			}
			for o, err := range net.Stream(context.Background(), q) {
				t.Errorf("cached=%v, stream from %v yielded %v, %v; want nothing", cached, v, o, err)
			}
		}
		if cs, ok := net.ShortcutTableStats(); ok != cached || cs.Hits != 0 {
			t.Errorf("cached=%v: route cache stats %+v, %v; want no hit", cached, cs, ok)
		}
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
	if third := do("after a destination left", 0); !reflect.DeepEqual(third.Objects, first.Objects) {
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
