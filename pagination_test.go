package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// pagedNetwork builds a network with a deterministic object population
// dense enough that wide queries span many pages.
func pagedNetwork(t *testing.T, objects int) *Network {
	t.Helper()
	net, err := NewNetwork(300, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pubs := make([]Publication, objects)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%05d", i), Values: []float64{rng.Float64() * 1000}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPaginationWalkEqualsFull pages through a large range and requires the
// concatenated pages to equal the unpaginated result exactly — same
// objects, same (ObjectID, Name) order, nothing skipped or repeated.
func TestPaginationWalkEqualsFull(t *testing.T) {
	net := pagedNetwork(t, 2500)
	ranges := []Range{{Low: 100, High: 900}}
	full, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	if full.NextOffsetID != "" {
		t.Fatalf("unpaginated query returned a cursor %q", full.NextOffsetID)
	}
	if len(full.Objects) < 1000 {
		t.Fatalf("population too sparse for the test: %d matches", len(full.Objects))
	}

	for _, limit := range []int{1, 7, 128, 1024, len(full.Objects) + 1} {
		var walked []Object
		offset := ""
		pages := 0
		for {
			opts := []QueryOption{WithLimit(limit)}
			if offset != "" {
				opts = append(opts, WithOffsetID(offset))
			}
			page, err := net.Do(context.Background(), NewRange(ranges, opts...))
			if err != nil {
				t.Fatalf("limit %d page %d: %v", limit, pages, err)
			}
			if len(page.Objects) == 0 && page.NextOffsetID != "" {
				t.Fatalf("limit %d: empty page with a continuation cursor", limit)
			}
			walked = append(walked, page.Objects...)
			pages++
			if pages > len(full.Objects)+2 {
				t.Fatalf("limit %d: walk does not terminate", limit)
			}
			if page.NextOffsetID == "" {
				break
			}
			offset = page.NextOffsetID
		}
		if !reflect.DeepEqual(walked, full.Objects) {
			t.Fatalf("limit %d: paged walk (%d objects over %d pages) diverged from the full result (%d objects)",
				limit, len(walked), pages, len(full.Objects))
		}
		if wantPages := (len(full.Objects) + limit - 1) / limit; pages > wantPages+1 {
			t.Errorf("limit %d: %d pages, want about %d", limit, pages, wantPages)
		}
	}
}

// TestPaginationFloodAgrees runs the same paged walk through the flood
// ablation, which must return identical pages at its higher message cost.
func TestPaginationFloodAgrees(t *testing.T) {
	net := pagedNetwork(t, 800)
	ranges := []Range{{Low: 200, High: 700}}
	full, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	var walked []Object
	offset := ""
	for {
		opts := []QueryOption{WithFlood(), WithLimit(100)}
		if offset != "" {
			opts = append(opts, WithOffsetID(offset))
		}
		page, err := net.Do(context.Background(), NewRange(ranges, opts...))
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Objects...)
		if page.NextOffsetID == "" {
			break
		}
		offset = page.NextOffsetID
	}
	if !reflect.DeepEqual(walked, full.Objects) {
		t.Fatalf("flood walk found %d objects, range query %d", len(walked), len(full.Objects))
	}
}

// TestPaginationTies publishes many objects under one ObjectID (identical
// values) and checks that a page never splits the ID: the page overshoots
// the limit instead, and the walk neither drops nor repeats anything.
func TestPaginationTies(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := net.Publish(fmt.Sprintf("dup-%02d", i), 500.0); err != nil { // one shared ObjectID
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := net.Publish(fmt.Sprintf("spread-%02d", i), 400.0+float64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []Range{{Low: 390, High: 600}}
	full, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	var walked []Object
	offset := ""
	overshot := false
	for {
		opts := []QueryOption{WithLimit(7)}
		if offset != "" {
			opts = append(opts, WithOffsetID(offset))
		}
		page, err := net.Do(context.Background(), NewRange(ranges, opts...))
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Objects) > 7 {
			overshot = true
			for i := 7; i < len(page.Objects); i++ {
				if page.Objects[i].ID != page.Objects[6].ID {
					t.Fatalf("page overshot the limit with a fresh ObjectID %q", page.Objects[i].ID)
				}
			}
		}
		walked = append(walked, page.Objects...)
		if page.NextOffsetID == "" {
			break
		}
		offset = page.NextOffsetID
	}
	if !overshot {
		t.Error("no page overshot its limit; the 40-way tie should have forced one")
	}
	if !reflect.DeepEqual(walked, full.Objects) {
		t.Fatalf("tied walk diverged: %d objects vs %d", len(walked), len(full.Objects))
	}
}

// TestPaginationOptionErrors covers the validation surface.
func TestPaginationOptionErrors(t *testing.T) {
	net := pagedNetwork(t, 50)
	ctx := context.Background()
	cases := []struct {
		name string
		q    Query
	}{
		{"limit on lookup", NewLookup("obj-00001", WithLimit(5))},
		{"offset on lookup", NewLookup("obj-00001", WithOffsetID("0101010101"))},
		{"limit on top-k", NewRange([]Range{{0, 1000}}, WithTopK(3), WithLimit(5))},
		{"negative limit", NewRange([]Range{{0, 1000}}, WithLimit(-1))},
		{"malformed offset", NewRange([]Range{{0, 1000}}, WithLimit(5), WithOffsetID("zz"))},
	}
	for _, c := range cases {
		if _, err := net.Do(ctx, c.q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", c.name, err)
		}
	}
}

// TestStreamLimit checks the streaming cap: the stream ends after exactly
// Limit objects when more exist, and they are the page Do returns — the
// Limit smallest ObjectIDs, in order.
func TestStreamLimit(t *testing.T) {
	net := pagedNetwork(t, 1200)
	q := NewRange([]Range{{Low: 0, High: 1000}}, WithLimit(25))
	var streamed []Object
	for o, err := range net.Stream(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, o)
		if len(streamed) > 25 {
			break
		}
	}
	if len(streamed) != 25 {
		t.Fatalf("stream yielded %d objects, want exactly the limit 25", len(streamed))
	}
	page, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, page.Objects) {
		t.Fatal("a limited stream is not the page Do returns for the same query")
	}
	// Without a limit the same query streams far more.
	n := 0
	for _, err := range net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n <= 25 {
		t.Fatalf("unlimited stream yielded only %d objects", n)
	}
}

// TestPageCutOnRunBoundary pins the subtle cut of a page that scans only
// what it returns: when the page ends exactly where one destination's run
// ends, whether a next page exists is decided by probing the peers located
// beyond it. If none of them holds an admitted object the cursor must be
// empty (no phantom empty page), and one admitted object anywhere later
// must make it non-empty — for PIRA and MIRA, with and without replication,
// under every read policy.
func TestPageCutOnRunBoundary(t *testing.T) {
	ctx := context.Background()
	for _, attrs := range []int{1, 2} {
		for _, k := range []int{1, 2} {
			for _, pol := range []ReadPolicy{ReadPrimary, ReadRoundRobin, ReadLeastLoaded} {
				name := fmt.Sprintf("attrs=%d/k=%d/%v", attrs, k, pol)
				spaces := []AttributeSpace{{Low: 0, High: 1000}, {Low: 0, High: 100}}[:attrs]
				net, err := NewNetwork(90, WithSeed(23), WithAttributes(spaces...), WithReplication(k))
				if err != nil {
					t.Fatal(err)
				}
				// point places a value on attribute 0; further attributes sit
				// inside the queried box unless it is a decoy.
				point := func(v float64, decoy bool) []float64 {
					p := []float64{v, 50}
					if decoy {
						p[1] = 90
					}
					return p[:attrs]
				}
				ranges := []Range{{Low: 100, High: 900}, {Low: 40, High: 60}}[:attrs]
				for i := 0; i < 14; i++ {
					if err := net.Publish(fmt.Sprintf("in-%02d", i), point(200+float64(i)*17, false)...); err != nil {
						t.Fatal(err)
					}
				}
				if attrs > 1 {
					// In the query's Kautz region but outside its box: the probe
					// must walk past them without calling them a next page.
					for i := 0; i < 30; i++ {
						if err := net.Publish(fmt.Sprintf("decoy-%02d", i), point(150+float64(i)*25, true)...); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Owners under ReadPrimary mark the run boundaries.
				all, err := net.Do(ctx, NewRange(ranges, WithReadPolicy(ReadPrimary)))
				if err != nil {
					t.Fatal(err)
				}
				if len(all.Objects) != 14 {
					t.Fatalf("%s: %d matches, want 14", name, len(all.Objects))
				}
				var cuts []int // lengths of the result's prefixes that end with a run
				owners := map[string]bool{}
				for i, o := range all.Objects {
					owners[o.Peer] = true
					if i+1 == len(all.Objects) || all.Objects[i+1].Peer != o.Peer {
						cuts = append(cuts, i+1)
					}
				}
				if len(cuts) < 3 || len(all.Destinations) <= len(owners) {
					t.Fatalf("%s: %d runs on %d owners of %d destinations: no run boundary with empty peers beyond it", name, len(cuts), len(owners), len(all.Destinations))
				}
				page := func(limit int, offset string) *Result {
					t.Helper()
					res, err := net.Do(ctx, NewRange(ranges, WithReadPolicy(pol), WithLimit(limit), WithOffsetID(offset)))
					if err != nil {
						t.Fatalf("%s: limit %d after %q: %v", name, limit, offset, err)
					}
					return res
				}
				ids := func(objs []Object) (out []string) {
					for _, o := range objs {
						out = append(out, o.Name+"@"+o.ID)
					}
					return out
				}
				for _, cut := range cuts {
					res := page(cut, "")
					if !reflect.DeepEqual(ids(res.Objects), ids(all.Objects[:cut])) {
						t.Fatalf("%s: page of %d is not the result's first %d objects", name, cut, cut)
					}
					want := all.Objects[cut-1].ID
					if cut == len(all.Objects) {
						want = "" // only empty and decoy-holding peers remain
					}
					if res.NextOffsetID != want {
						t.Fatalf("%s: page ending on the run boundary at %d has cursor %q, want %q", name, cut, res.NextOffsetID, want)
					}
				}
				// One admitted object far beyond the last run: the same page now
				// has a successor, and the successor is exactly that object.
				if err := net.Publish("late", point(880, false)...); err != nil {
					t.Fatal(err)
				}
				res := page(14, "")
				if res.NextOffsetID != all.Objects[13].ID {
					t.Fatalf("%s: cursor %q after a later object was published, want %q", name, res.NextOffsetID, all.Objects[13].ID)
				}
				last := page(14, res.NextOffsetID)
				if len(last.Objects) != 1 || last.Objects[0].Name != "late" || last.NextOffsetID != "" {
					t.Fatalf("%s: following page = %v, cursor %q; want the one late object and no cursor", name, ids(last.Objects), last.NextOffsetID)
				}
				if err := net.Audit(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				net.Close()
			}
		}
	}
}

// FuzzOffsetID feeds WithOffsetID arbitrary strings — cursors come back
// from callers, so they are untrusted input. A query must reject them with
// ErrBadQuery or return a valid page strictly past the cursor; it must
// never panic.
func FuzzOffsetID(f *testing.F) {
	net, err := NewNetwork(40, WithSeed(5), WithK(12))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := net.Publish(fmt.Sprintf("obj-%03d", i), float64(i*8)); err != nil {
			f.Fatal(err)
		}
	}
	ranges := []Range{{Low: 0, High: 1000}}
	first, err := net.Do(context.Background(), NewRange(ranges, WithLimit(5)))
	if err != nil || first.NextOffsetID == "" {
		f.Fatalf("seed page: cursor %q, err %v", first.NextOffsetID, err)
	}
	for _, seed := range []string{
		first.NextOffsetID,             // a real cursor
		"",                             // no cursor
		"zz",                           // not Kautz symbols
		first.NextOffsetID[:11],        // too short
		first.NextOffsetID + "0",       // too long
		"010101010100",                 // right length, repeated symbol
		"212121212121", "010101010101", // the namespace's extremes
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, offset string) {
		page, err := net.Do(context.Background(), NewRange(ranges, WithLimit(5), WithOffsetID(offset)))
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("offset %q: error %v is not ErrBadQuery", offset, err)
			}
			return
		}
		prev := offset
		for _, o := range page.Objects {
			if o.ID <= offset || o.ID < prev {
				t.Fatalf("offset %q: page holds %q after %q", offset, o.ID, prev)
			}
			prev = o.ID
		}
		if next := page.NextOffsetID; next != "" && next != prev {
			t.Fatalf("offset %q: cursor %q is not the page's last ObjectID %q", offset, next, prev)
		}
	})
}
