package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// The descent golden file pins the engine's observable behaviour across
// every query path — results, cost metrics, destination sets, page cursors
// and the exact hop sequence — so that a rewrite of the message path can
// be shown byte-identical to the engine that generated the file. Its descent
// rows were generated on the boxed-payload engine (the parent of the typed
// message path) and must never be regenerated to make a behaviour change
// pass. Its seeded rows were regenerated once, when the two route caches
// became one: a seeded query now walks the live owners in trie order and
// delivers only where its box does (CHANGES.md, PR 18, records the check of
// old against new rows).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/descent_golden.json from this tree's engine")

const goldenPath = "testdata/descent_golden.json"

// goldenRecord is one executed query's pinned outcome.
type goldenRecord struct {
	Case   string   `json:"case"`
	Stats  Stats    `json:"stats"`
	Dests  []string `json:"destinations,omitempty"`
	Next   string   `json:"next,omitempty"`
	Owner  string   `json:"owner,omitempty"`
	Served string   `json:"served,omitempty"`
	N      int      `json:"n"`
	FNV    string   `json:"fnv"`   // ordered (ObjectID, Name, Peer) result
	Trace  string   `json:"trace"` // ordered (kind, from, to, depth, remaining) hops
}

// goldenRun executes queries against one engine and records them.
type goldenRun struct {
	t    *testing.T
	eng  *Engine
	name string
	recs *[]goldenRecord
	seq  int
}

func hashStr(h io.Writer, parts ...string) {
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
}

func (g *goldenRun) caseName(kind string) string {
	g.seq++
	return fmt.Sprintf("%s/%s/%03d", g.name, kind, g.seq)
}

// traced returns opts plus a trace observer feeding the returned digest.
func traced(opts []QueryOption) ([]QueryOption, func() string) {
	h := fnv.New64a()
	tr := WithTrace(func(kind HopKind, from, to kautz.Str, depth, remaining int) {
		if kind == HopScan {
			return // the digest pins the overlay messages; a scan completion is not one
		}
		hashStr(h, fmt.Sprint(int(kind)), string(from), string(to), fmt.Sprint(depth), fmt.Sprint(remaining))
	})
	return append(append([]QueryOption(nil), opts...), tr), func() string { return fmt.Sprintf("%016x", h.Sum64()) }
}

func (g *goldenRun) recordRange(kind string, res *RangeResult, trace string) {
	g.t.Helper()
	h := fnv.New64a()
	n := 0
	for _, run := range res.Runs {
		if len(run) == 0 || &run[0] != &res.Matches[n] {
			g.t.Fatalf("%s: run at offset %d is not the next non-empty view of Matches", kind, n)
		}
		for _, m := range run {
			hashStr(h, m.ID, m.Name, m.Peer)
			n++
		}
	}
	if len(res.Matches) != n {
		g.t.Fatalf("%s: Matches (%d) is not the concatenation of Runs (%d)", kind, len(res.Matches), n)
	}
	rec := goldenRecord{
		Case: g.caseName(kind), Stats: res.Stats, Next: string(res.Next),
		N: n, FNV: fmt.Sprintf("%016x", h.Sum64()), Trace: trace,
	}
	for _, d := range res.Destinations {
		rec.Dests = append(rec.Dests, string(d))
	}
	*g.recs = append(*g.recs, rec)
}

func (g *goldenRun) rangeQ(kind string, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) *RangeResult {
	g.t.Helper()
	topts, digest := traced(opts)
	res, err := g.eng.RangeQuery(context.Background(), issuer, lo, hi, topts...)
	if err != nil {
		g.t.Fatalf("%s %s: %v", g.name, kind, err)
	}
	g.recordRange(kind, res, digest())
	return res
}

func (g *goldenRun) flood(kind string, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) *RangeResult {
	g.t.Helper()
	topts, digest := traced(opts)
	res, err := g.eng.FloodQuery(context.Background(), issuer, lo, hi, topts...)
	if err != nil {
		g.t.Fatalf("%s %s: %v", g.name, kind, err)
	}
	g.recordRange(kind, res, digest())
	return res
}

func (g *goldenRun) lookup(kind string, issuer, oid kautz.Str, opts ...QueryOption) *LookupResult {
	g.t.Helper()
	topts, digest := traced(opts)
	res, err := g.eng.Lookup(context.Background(), issuer, oid, topts...)
	if err != nil {
		g.t.Fatalf("%s %s: %v", g.name, kind, err)
	}
	h := fnv.New64a()
	for _, o := range res.Objects {
		hashStr(h, o.Name, fmt.Sprint(o.Values))
	}
	served := string(res.Owner)
	if len(res.Objects) > 0 {
		served = res.Objects[0].Peer // one delivery serves a lookup; all its objects agree
	}
	*g.recs = append(*g.recs, goldenRecord{
		Case: g.caseName(kind), Stats: res.Stats, Owner: string(res.Owner), Served: served,
		N: len(res.Objects), FNV: fmt.Sprintf("%016x", h.Sum64()), Trace: digest(),
	})
	return res
}

func (g *goldenRun) topK(kind string, issuer kautz.Str, lo, hi []float64, k int, opts ...QueryOption) {
	g.t.Helper()
	topts, digest := traced(opts)
	res, err := g.eng.TopK(context.Background(), issuer, lo, hi, k, topts...)
	if err != nil {
		g.t.Fatalf("%s %s: %v", g.name, kind, err)
	}
	h := fnv.New64a()
	for _, m := range res.Matches {
		hashStr(h, m.ID, m.Name, m.Peer)
	}
	*g.recs = append(*g.recs, goldenRecord{
		Case: g.caseName(kind), Stats: res.Stats,
		N: len(res.Matches), FNV: fmt.Sprintf("%016x", h.Sum64()), Trace: digest(),
	})
}

// goldenWorld is one seeded network with published objects.
type goldenWorld struct {
	eng  *Engine
	tree *naming.Tree
	vals [][]float64 // published attribute values, in publish order
}

// buildGoldenWorld builds a random network over attrs attributes (spaces
// [0,1000], [0,100], ...) with the given replication degree. Every tenth
// object repeats its predecessor's values, so ObjectID ties exist and page
// cuts must extend through them.
func buildGoldenWorld(t *testing.T, attrs, replicas, size, count int, seed int64) goldenWorld {
	t.Helper()
	net, err := fissione.BuildRandom(testK, size, seed)
	if err != nil {
		t.Fatal(err)
	}
	if replicas > 1 {
		if err := net.SetReplicas(replicas); err != nil {
			t.Fatal(err)
		}
	}
	spaces := []naming.Space{{Low: 0, High: 1000}, {Low: 0, High: 100}, {Low: 0, High: 10}}[:attrs]
	tree, err := naming.NewTree(testK, spaces...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	w := goldenWorld{eng: eng, tree: tree}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < count; i++ {
		v := make([]float64, attrs)
		for a := range v {
			v[a] = rng.Float64() * spaces[a].High
		}
		if i%10 == 9 {
			copy(v, w.vals[i-1])
		}
		oid, err := tree.Hash(v...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: fmt.Sprintf("obj-%04d", i), Values: v}); err != nil {
			t.Fatal(err)
		}
		w.vals = append(w.vals, v)
	}
	return w
}

// goldenBox draws a query box: attribute a spans width[a]·[0.5,1.5) of its
// space starting at a uniform point.
func goldenBox(rng *rand.Rand, tree *naming.Tree, frac float64) (lo, hi []float64) {
	for _, s := range tree.Spaces() {
		w := s.Width() * frac * (0.5 + rng.Float64())
		l := s.Low + rng.Float64()*(s.Width()-w)
		lo, hi = append(lo, l), append(hi, l+w)
	}
	return lo, hi
}

// goldenSuite runs the full query mix against one fresh world under one
// read policy.
func goldenSuite(t *testing.T, recs *[]goldenRecord, name string, attrs, replicas int, pol ReadPolicy, seed int64) {
	t.Helper()
	goldenMix(t, recs, name, buildGoldenWorld(t, attrs, replicas, 220, 1400, seed), pol, seed)
}

// goldenMix runs the full query mix against a world under one read policy.
func goldenMix(t *testing.T, recs *[]goldenRecord, name string, w goldenWorld, pol ReadPolicy, seed int64) {
	t.Helper()
	net, attrs := w.eng.Network(), w.tree.Attrs()
	g := &goldenRun{t: t, eng: w.eng, name: name, recs: recs}
	rng := rand.New(rand.NewSource(seed * 31))
	var base []QueryOption
	if pol != ReadPrimary {
		base = append(base, WithReadPolicy(pol))
	}
	with := func(extra ...QueryOption) []QueryOption {
		return append(append([]QueryOption(nil), base...), extra...)
	}
	frac := 0.04
	if attrs > 1 {
		frac = 0.3
	}

	// Exact-match lookups: published ObjectIDs and random (mostly empty) ones.
	for i := 0; i < 8; i++ {
		oid, err := w.tree.Hash(w.vals[rng.Intn(len(w.vals))]...)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			oid = kautz.Random(rng, testK)
		}
		issuer := net.RandomPeer(rng)
		fresh := g.lookup("lookup", issuer, oid, base...)
		if i%2 == 0 {
			g.lookup("lookup-shortcut", issuer, oid, with(WithRouter(learnedOf(net, []kautz.Str{fresh.Owner})))...)
		}
	}

	// Range queries (PIRA / MIRA box), flattened and runs-only.
	for i := 0; i < 8; i++ {
		lo, hi := goldenBox(rng, w.tree, frac)
		issuer := net.RandomPeer(rng)
		if i%4 == 3 {
			g.rangeQ("range-runs", issuer, lo, hi, with(WithRunsOnly())...)
		} else {
			g.rangeQ("range", issuer, lo, hi, base...)
		}
	}
	// The whole space: all three first-symbol subregions.
	full := w.tree.Spaces()
	flo, fhi := make([]float64, attrs), make([]float64, attrs)
	for a, s := range full {
		flo[a], fhi[a] = s.Low, s.High
	}
	g.rangeQ("range-full", net.RandomPeer(rng), flo, fhi, base...)

	// Paged walks with Limit and After, descending on every page.
	for i := 0; i < 2; i++ {
		lo, hi := goldenBox(rng, w.tree, frac*3)
		issuer := net.RandomPeer(rng)
		limit := 3 + rng.Intn(12)
		var after kautz.Str
		for page := 0; page < 6; page++ {
			opts := with(WithLimit(limit))
			if after != "" {
				opts = append(opts, WithAfter(after))
			}
			res := g.rangeQ("page", issuer, lo, hi, opts...)
			if res.Next == "" {
				break
			}
			after = res.Next
		}
	}

	// Flood ablation, unpaged and paged.
	for i := 0; i < 2; i++ {
		lo, hi := goldenBox(rng, w.tree, frac)
		issuer := net.RandomPeer(rng)
		g.flood("flood", issuer, lo, hi, base...)
		if i == 1 {
			res := g.flood("flood-page", issuer, lo, hi, with(WithLimit(5))...)
			if res.Next != "" {
				g.flood("flood-page", issuer, lo, hi, with(WithLimit(5), WithAfter(res.Next))...)
			}
		}
	}

	// Top-k over wide and narrow ranges.
	for i := 0; i < 4; i++ {
		lo, hi := goldenBox(rng, w.tree, frac*float64(1+i))
		g.topK("topk", net.RandomPeer(rng), lo, hi, 1+rng.Intn(8), base...)
	}

	// A descent that teaches, then queries seeded from what it taught: the
	// same region, paged walks over it, and narrower queries it covers.
	for i := 0; i < 2; i++ {
		lo, hi := goldenBox(rng, w.tree, frac*2)
		issuer := net.RandomPeer(rng)
		capt := learned{}
		g.rangeQ("capture", issuer, lo, hi, with(WithRouter(capt))...)
		if len(capt) == 0 {
			t.Fatalf("%s: the descent taught nothing", name)
		}
		g.rangeQ("seeded", net.RandomPeer(rng), lo, hi, with(WithRouter(capt))...)
		var after kautz.Str
		for page := 0; page < 3; page++ {
			opts := with(WithRouter(capt), WithLimit(7))
			if after != "" {
				opts = append(opts, WithAfter(after))
			}
			res := g.rangeQ("seeded-page", issuer, lo, hi, opts...)
			if res.Next == "" {
				break
			}
			after = res.Next
		}
		nlo, nhi := make([]float64, attrs), make([]float64, attrs)
		for a := range lo {
			q := (hi[a] - lo[a]) / 4
			nlo[a], nhi[a] = lo[a]+q, hi[a]-q
		}
		g.rangeQ("seeded-narrow", issuer, nlo, nhi, with(WithRouter(capt))...)
	}

	// Ranges seeded by an issuer that learned the fresh descent's
	// destinations by name (as a warmed table holds them), also paged.
	for i := 0; i < 4; i++ {
		lo, hi := goldenBox(rng, w.tree, frac)
		issuer := net.RandomPeer(rng)
		fresh := g.rangeQ("range", issuer, lo, hi, base...)
		route := learnedOf(net, fresh.Destinations)
		g.rangeQ("shortcut", issuer, lo, hi, with(WithRouter(route))...)
		if i%2 == 0 {
			res := g.rangeQ("shortcut-page", issuer, lo, hi, with(WithRouter(route), WithLimit(4))...)
			if res.Next != "" {
				g.rangeQ("shortcut-page", issuer, lo, hi, with(WithRouter(route), WithLimit(4), WithAfter(res.Next))...)
			}
		}
		if i == 3 && len(route) > 1 {
			// A cover with a hole falls back to the descent at no cost.
			g.rangeQ("shortcut-hole", issuer, lo, hi, with(WithRouter(learnedOf(net, fresh.Destinations[1:])))...)
		}
	}
}

func goldenRecords(t *testing.T) []goldenRecord {
	t.Helper()
	var recs []goldenRecord
	goldenSuite(t, &recs, "pira-k1", 1, 1, ReadPrimary, 101)
	goldenSuite(t, &recs, "mira-k1", 2, 1, ReadPrimary, 103)
	for _, pol := range []ReadPolicy{ReadPrimary, ReadRoundRobin, ReadLeastLoaded} {
		goldenSuite(t, &recs, "pira-k2-"+pol.String(), 1, 2, pol, 107)
		goldenSuite(t, &recs, "mira-k2-"+pol.String(), 2, 2, pol, 109)
	}
	return recs
}

// TestDescentGolden replays the seeded query mix and requires the engine's
// output to match the committed golden file byte for byte.
func TestDescentGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenRecords(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotRecs, wantRecs []goldenRecord
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatalf("golden file does not parse: %v", err)
	}
	if err := json.Unmarshal(got, &gotRecs); err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Errorf("executed %d queries, golden has %d", len(gotRecs), len(wantRecs))
	}
	for i := 0; i < min(len(gotRecs), len(wantRecs)); i++ {
		g, w := gotRecs[i], wantRecs[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("first divergence at record %d:\n got %s\nwant %s", i, gj, wj)
		}
	}
	t.Fatal("golden file differs from the engine's output")
}
