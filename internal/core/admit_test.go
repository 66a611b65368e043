package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"armada/internal/fissione"
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
// the admitted size — besides the query's box and its destinations; a pass
// that sizes the page before the admission costs a page more.
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
	if least > 4 {
		t.Fatalf("a MIRA range over %d runs allocates %.0f times, want 4: box, matches, values, destinations", res.Stats.Deliveries, least)
	}
}
