package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// tiedWorld is a two-attribute golden world plus a 40-way tie — forty
// objects at one value pair, so one ObjectID — and twenty objects a hair
// around it, so the tie shares its owner's run with others. It returns the
// world and every object it holds.
func tiedWorld(t *testing.T) (goldenWorld, []Match) {
	t.Helper()
	w := buildGoldenWorld(t, 2, 1, 200, 1500, 311)
	var objs []Match
	for i, v := range w.vals {
		oid, _ := w.tree.Hash(v...)
		objs = append(objs, Match{Name: fmt.Sprintf("obj-%04d", i), Values: v, ID: string(oid)})
	}
	publish := func(name string, v ...float64) {
		oid, err := w.tree.Hash(v...)
		if err == nil {
			_, err = w.eng.Network().PublishAt(oid, fissione.Object{Name: name, Values: v})
		}
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, Match{Name: name, Values: v, ID: string(oid)})
	}
	for i := range 40 {
		publish(fmt.Sprintf("tie-%02d", i), 437.3, 61.7)
	}
	for i := range 20 {
		d := float64(i-10) * 1e-3
		publish(fmt.Sprintf("near-%02d", i), 437.3+d, 61.7-d)
	}
	return w, objs
}

// inBox is every object of objs the box admits, in result order: ascending
// (ObjectID, Name).
func inBox(objs []Match, lo, hi []float64) []Match {
	var out []Match
	for _, o := range objs {
		if v := o.Values; v[0] >= lo[0] && v[0] <= hi[0] && v[1] >= lo[1] && v[1] <= hi[1] {
			out = append(out, o)
		}
	}
	slices.SortFunc(out, func(a, b Match) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Name, b.Name)) })
	return out
}

// TestMIRAPageCutInsideTie: a MIRA paged walk — Do-style pages resumed at
// their cursor, and a Walk's positional pages — whose cut falls inside the
// 40-way tie, in a run that also holds other objects, grows that page through
// the tie and no further, and the pages concatenate to the whole result.
// Every page is sized exactly, and a page past its limit holds only the tie.
func TestMIRAPageCutInsideTie(t *testing.T) {
	w, objs := tiedWorld(t)
	ctx, eng, lo, hi := context.Background(), w.eng, []float64{300, 30}, []float64{700, 70}
	issuer := eng.Network().PeerIDAt(17)
	full, err := eng.RangeQuery(ctx, issuer, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 100 || full.Stats.Deliveries < 3 {
		t.Fatalf("box matches %d objects over %d runs; the test needs a wide multi-run MIRA result", len(full.Matches), full.Stats.Deliveries)
	}
	tieRun := slices.IndexFunc(full.Runs, func(run []Match) bool {
		return slices.ContainsFunc(run, func(m Match) bool { return m.Name == "tie-00" })
	})
	if tieRun < 0 || len(full.Runs[tieRun]) <= 40 {
		t.Fatalf("the tie's run holds nothing else; the cut would not fall inside a run")
	}
	for _, limit := range []int{1, 7, 39, 64} {
		var walk Walk
		var paged, walked []Match
		overshot := false
		for _, positional := range []bool{false, true} {
			cfg := QueryConfig{Limit: limit}
			for pages := 0; ; pages++ {
				var res RangeResult
				if positional {
					res, _, _, err = eng.WalkPage(ctx, &walk, issuer, lo, hi, cfg)
					walked = append(walked, res.Matches...)
				} else {
					res, err = eng.RangeQueryWith(ctx, issuer, lo, hi, cfg)
					paged = append(paged, res.Matches...)
				}
				if err != nil {
					t.Fatal(err)
				}
				if cap(res.Matches) != len(res.Matches) {
					t.Fatalf("limit %d page %d: %d matches in a slice of cap %d", limit, pages, len(res.Matches), cap(res.Matches))
				}
				if n := len(res.Matches); n > limit {
					overshot = true
					for _, m := range res.Matches[limit:] {
						if m.ID != res.Matches[limit-1].ID {
							t.Fatalf("limit %d page %d: %d matches, past the cut a fresh ObjectID", limit, pages, n)
						}
					}
				} else if n < limit && res.Next != "" {
					t.Fatalf("limit %d page %d: short page of %d with a cursor", limit, pages, n)
				}
				if res.Next == "" {
					break
				}
				cfg.After = res.Next
			}
		}
		if !overshot {
			t.Errorf("limit %d: no page overshot; the 40-way tie should force one", limit)
		}
		if !reflect.DeepEqual(paged, full.Matches) || !reflect.DeepEqual(walked, full.Matches) {
			t.Fatalf("limit %d: pages hold %d and walk pages %d objects, the whole result %d", limit, len(paged), len(walked), len(full.Matches))
		}
	}
	if want := inBox(objs, lo, hi); !reflect.DeepEqual(full.Matches, want) {
		t.Fatalf("whole result: %d objects, the oracle %d", len(full.Matches), len(want))
	}
}

// TestMIRASingleRunPage: a MIRA box inside one owner's region is one run,
// scanned under one lock acquisition; its page is oracle-exact and sized
// exactly, whole or cut at a limit — inside the tie or outside it.
func TestMIRASingleRunPage(t *testing.T) {
	w, objs := tiedWorld(t)
	ctx, eng := context.Background(), w.eng
	lo, hi := []float64{437.28, 61.68}, []float64{437.32, 61.72}
	want := inBox(objs, lo, hi)
	cutInTie := false
	for _, limit := range []int{0, 1, 5, 30, 59} {
		res, err := eng.RangeQuery(ctx, eng.Network().PeerIDAt(3), lo, hi, WithLimit(limit))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Deliveries != 1 || len(want) != 60 {
			t.Fatalf("box: %d deliveries, %d objects; the test needs one run of the 60 tied and near objects", res.Stats.Deliveries, len(want))
		}
		n := len(want)
		if limit > 0 {
			for n = limit; n < len(want) && want[n].ID == want[n-1].ID; n++ {
				cutInTie = true
			}
		}
		if len(res.Matches) != n || cap(res.Matches) != n || (res.Next != "") != (n < len(want)) {
			t.Fatalf("limit %d: %d matches (cap %d, next %q), want %d", limit, len(res.Matches), cap(res.Matches), res.Next, n)
		}
		for i, m := range res.Matches {
			if m.ID != want[i].ID || m.Name != want[i].Name || !slices.Equal(m.Values, want[i].Values) || cap(m.Values) != 2 {
				t.Fatalf("limit %d: match %d is %+v, want %+v", limit, i, m, want[i])
			}
		}
	}
	if !cutInTie {
		t.Error("no limit cut the page inside the tie")
	}
}

// TestMIRAPageAllocs: a MIRA page visits each serving store once and
// allocates its result once — the matches and their values, each at exactly
// the admitted size — besides its destinations (its box lives in the pooled
// state); a pass that sizes the page before the admission costs a page more.
func TestMIRAPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	w, _ := tiedWorld(t)
	ctx, eng, lo, hi := context.Background(), w.eng, []float64{300, 30}, []float64{700, 70}
	issuer := eng.Network().PeerIDAt(17)
	res, err := eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{})
	if err != nil || res.Stats.Deliveries < 3 {
		t.Fatalf("box reaches %d runs (%v), want ≥ 3", res.Stats.Deliveries, err)
	}
	least := math.Inf(1)
	for range 20 {
		least = min(least, testing.AllocsPerRun(1, func() {
			if _, err := eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if least > 3 {
		t.Fatalf("a MIRA range over %d runs allocates %.0f times, want 3: matches, values, destinations", res.Stats.Deliveries, least)
	}
}

// TestWideMIRAPageKeepsItsBuffer: a MIRA page that buffers more than 4,096
// objects — a slab thinner than any owner's share of attribute 1, so no
// owner lies inside the box and every match is admitted into the buffer —
// leaves that buffer pooled for the next such page, which then allocates no
// more than TestMIRAPageAllocs allows.
func TestWideMIRAPageKeepsItsBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states under the race detector")
	}
	w := buildGoldenWorld(t, 2, 1, 20, 30000, 41)
	ctx, eng, lo, hi := context.Background(), w.eng, []float64{0, 30}, []float64{1000, 50}
	issuer := eng.Network().PeerIDAt(3)
	st := locateRange(t, eng, issuer, lo, hi, QueryConfig{}, false)
	out, _, _ := st.materialise(false, nil)
	buffered := len(st.recs)
	st.finish()
	if buffered <= 4096 || buffered != len(out) {
		t.Fatalf("the page buffered %d of its %d objects; the test needs every one, over 4,096", buffered, len(out))
	}
	least := math.Inf(1)
	for range 20 {
		least = min(least, testing.AllocsPerRun(1, func() {
			if _, err := eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if least > 3 {
		t.Fatalf("a second MIRA page of %d objects allocates %.0f times, want 3: matches, values, destinations", buffered, least)
	}
}

// TestPooledBufferBound: a pooled state keeps a buffer while it pins at most
// maxPooled bytes, whatever its element size — a wide page's 16,384 records
// stay — and lets go of a larger one: the queue of a flood over 8,000 peers
// is not pinned for the next lookup.
func TestPooledBufferBound(t *testing.T) {
	if got := recycle(make([]string, 3, 16384), true); got == nil || len(got) != 0 {
		t.Fatalf("a buffer of 16,384 records is let go (%d, cap %d)", len(got), cap(got))
	}
	if got := recycle(make([]string, 0, 16385), true); got != nil {
		t.Fatal("a buffer of 16,385 records is kept")
	}
	eng, _ := buildSingle(t, 8000, 0, 5)
	st := locateRange(t, eng, eng.Network().PeerIDAt(0), []float64{0}, []float64{1000}, QueryConfig{}, true)
	if size := uintptr(cap(st.queue)) * unsafe.Sizeof(msg{}); size <= maxPooled {
		t.Fatalf("the flood queued %d messages (%d B), within the bound; the test needs more", len(st.queue), size)
	}
	if recycle(st.queue, false) != nil {
		t.Fatalf("the flood's queue of %d messages is kept", len(st.queue))
	}
	st.finish()
}

// TestReleaseDropsReferences: a released state keeps no record, no tile and
// no top-k candidate in its pooled buffers, so the pool pins neither results
// nor departed peers.
func TestReleaseDropsReferences(t *testing.T) {
	st := &queryState{recs: []string{"rec"}, tiles: []Tile{{Slot: 1, ID: "01"}}, top: selection{kept: []candidate{{rec: "rec"}}}}
	recs, tiles, kept := st.recs, st.tiles, st.top.kept
	st.release()
	if recs[0] != "" || tiles[0] != (Tile{}) || kept[0] != (candidate{}) {
		t.Fatalf("released state still references %q, %v and %v", recs[0], tiles[0], kept[0])
	}
}

// TestPageCutHoldsAgainstWrites: a paged query counts an inside run under one
// acquisition of its store's lock and re-reads it under another, so a write
// can land in between; the page written keeps the cut's rules all the same.
// Publishes ahead of the cut — in the re-read run, or in one ahead of a
// buffered boundary run — leave the page at its limit bar a tie, its cursor
// at its last ObjectID: the page a query run after the write returns. With
// every counted object unpublished the page is empty, and its cursor resumes
// after them rather than ending the walk.
func TestPageCutHoldsAgainstWrites(t *testing.T) {
	ctx := context.Background()
	for _, attrs := range []int{1, 2} {
		w := buildGoldenWorld(t, attrs, 1, 60, 3000, 53)
		eng, net := w.eng, w.eng.Network()
		issuer := net.PeerIDAt(5)
		lo, hi := make([]float64, attrs), make([]float64, attrs)
		for a := range hi {
			hi[a] = goldenSpaces[a].High
		}
		query := func(after kautz.Str, limit int) RangeResult {
			res, err := eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{Limit: limit, After: after})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		all := query("", 0).Matches
		// find plans the page of limit after each cursor in turn, from the
		// first third of the objects on, until one plans as ok asks.
		find := func(limit int, ok func(st *queryState, pg *page) bool) (kautz.Str, *queryState, *page) {
			for _, m := range all[len(all)/3:] {
				after := kautz.Str(m.ID)
				st := locateRange(t, eng, issuer, lo, hi, QueryConfig{Limit: limit, After: after}, false)
				pg := new(page)
				st.scanRuns(pg, st.runs)
				if ok(st, pg) {
					return after, st, pg
				}
				st.finish()
			}
			t.Fatalf("m=%d limit %d: no page plans as the test needs", attrs, limit)
			return "", nil, nil
		}
		write := func(st *queryState, pg *page) ([]Match, kautz.Str) {
			st.build(pg, nil)
			out, next := st.result(pg)
			st.finish()
			return out, next
		}
		same := func(name string, got []Match, next kautz.Str, want RangeResult) {
			t.Helper()
			if next != want.Next || len(got) != len(want.Matches) || !slices.EqualFunc(got, want.Matches, func(a, b Match) bool { return a.ID == b.ID && a.Name == b.Name }) {
				t.Fatalf("m=%d %s: page of %d (next %q), a query after the write %d (next %q)", attrs, name, len(got), next, len(want.Matches), want.Next)
			}
		}
		publish := func(m Match, name string) {
			if _, err := net.PublishAt(kautz.Str(m.ID), fissione.Object{Name: name, Values: m.Values}); err != nil {
				t.Fatal(err)
			}
		}
		unpublish := func(m Match, name string) {
			if _, err := net.UnpublishAt(kautz.Str(m.ID), fissione.Object{Name: name, Values: m.Values}); err != nil {
				t.Fatal(err)
			}
		}
		after := func(id kautz.Str) Match {
			return all[slices.IndexFunc(all, func(m Match) bool { return kautz.Str(m.ID) > id })]
		}

		// Every counted object of an inside run unpublished.
		cursor, st, pg := find(1, func(st *queryState, pg *page) bool { return len(st.recs) == 0 && pg.more })
		counted := slices.DeleteFunc(slices.Clone(all), func(m Match) bool { return m.ID != pg.last })
		for _, m := range counted {
			unpublish(m, m.Name)
		}
		out, next := write(st, pg)
		if len(out) != 0 || next != kautz.Str(counted[0].ID) {
			t.Fatalf("m=%d: with its %d counted objects gone the page holds %d, next %q; want none, next %q", attrs, len(counted), len(out), next, counted[0].ID)
		}
		same("resumed after the unpublished", query(next, 1).Matches, query(next, 1).Next, query(cursor, 1))
		for _, m := range counted {
			publish(m, m.Name)
		}

		// A tie published ahead of the cut in the re-read run.
		cursor, st, pg = find(2, func(st *queryState, pg *page) bool { return len(st.recs) == 0 && pg.more && pg.n == 2 })
		first := after(cursor)
		publish(first, "zz-tie")
		out, next = write(st, pg)
		same("a tie ahead of the cut", out, next, query(cursor, 2))
		unpublish(first, "zz-tie")

		// A tie published in an inside run ahead of a buffered boundary run.
		cursor, st, pg = find(60, func(st *queryState, pg *page) bool { return st.runs[0].whole && len(st.recs) > 0 && pg.more })
		first = after(cursor)
		publish(first, "zz-tie")
		out, next = write(st, pg)
		same("a tie ahead of a boundary run", out, next, query(cursor, 60))
		unpublish(first, "zz-tie")
	}
}

// TestPagePlanCountsWhatItWrites: with no write racing it, a paged query's
// walk counts exactly what build then writes — its cut, in a boundary run or
// an inside one, is where the page ends, not an ObjectID past it — so a page
// buffers and re-reads O(limit) objects, not one more.
func TestPagePlanCountsWhatItWrites(t *testing.T) {
	ctx := context.Background()
	for _, attrs := range []int{1, 2} {
		w := buildGoldenWorld(t, attrs, 1, 60, 3000, 53)
		eng := w.eng
		issuer := eng.Network().PeerIDAt(5)
		lo, hi := make([]float64, attrs), make([]float64, attrs)
		for a := range hi {
			hi[a] = goldenSpaces[a].High
		}
		all, err := eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cuts := [2]int{} // pages cut in an inside run, in a boundary run
		for i := 0; i < len(all.Matches); i += 37 {
			for _, limit := range []int{1, 2, 7, 60} {
				after := kautz.Str(all.Matches[i].ID)
				st := locateRange(t, eng, issuer, lo, hi, QueryConfig{Limit: limit, After: after}, false)
				var pg page
				st.scanRuns(&pg, st.runs)
				planned, cutRun := pg.n, st.runs[len(st.ends)-1]
				st.build(&pg, nil)
				if planned != len(pg.out) {
					t.Fatalf("m=%d limit %d after %s: the walk counted %d objects, the page holds %d", attrs, limit, after, planned, len(pg.out))
				}
				if pg.more {
					if cutRun.whole {
						cuts[0]++
					} else {
						cuts[1]++
					}
				}
				st.finish()
			}
		}
		if cuts[0] == 0 || cuts[1] == 0 {
			t.Fatalf("m=%d: %d pages cut in an inside run, %d in a boundary run; the test needs both", attrs, cuts[0], cuts[1])
		}
	}
}

// locateRange runs a range query's first phase — the flood's, when flood is
// set — and returns the state holding its located runs, which the caller
// materialises and finishes.
func locateRange(t testing.TB, eng *Engine, issuer kautz.Str, lo, hi []float64, cfg QueryConfig, flood bool) *queryState {
	t.Helper()
	st := eng.newState(cfg, issuer)
	st.flood = flood
	if err := st.prepare(lo, hi); err != nil {
		t.Fatal(err)
	}
	span, ok := st.corners.Past(cfg.After)
	if !ok {
		t.Fatalf("nothing of [%v, %v] lies past %q", lo, hi, cfg.After)
	}
	if _, err := eng.locate(context.Background(), st, span); err != nil {
		st.finish()
		t.Fatal(err)
	}
	return st
}
