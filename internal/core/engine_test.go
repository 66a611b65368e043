package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

const testK = 24

// buildSingle creates a random network with a single-attribute tree over
// [0,1000] and publishes count objects at uniform values.
func buildSingle(t testing.TB, size, count int, seed int64) (*Engine, []fissione.Object) {
	t.Helper()
	net, err := fissione.BuildRandom(testK, size, seed)
	if err != nil {
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
	rng := rand.New(rand.NewSource(seed + 1))
	objs := make([]fissione.Object, count)
	for i := range objs {
		v := rng.Float64() * 1000
		objs[i] = fissione.Object{Name: objName(i), Values: []float64{v}}
		oid, err := tree.Hash(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return eng, objs
}

func objName(i int) string {
	return "obj-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i%10))
}

func TestNewValidatesK(t *testing.T) {
	net, err := fissione.New(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewSingleTree(12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, tree); err == nil {
		t.Error("mismatched k accepted")
	}
	if _, err := New(net, nil); err != nil {
		t.Errorf("nil tree rejected: %v", err)
	}
}

func TestRangeQueryRequiresTree(t *testing.T) {
	net, err := fissione.New(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RangeQuery(context.Background(), "0", []float64{1}, []float64{2}); err == nil {
		t.Error("range query without tree accepted")
	}
}

func TestRangeQueryUnknownIssuer(t *testing.T) {
	eng, _ := buildSingle(t, 16, 0, 5)
	if _, err := eng.RangeQuery(context.Background(), "01010101", []float64{0}, []float64{10}); err == nil {
		t.Error("unknown issuer accepted")
	}
}

// PIRA completeness: the query returns exactly the objects a brute-force
// scan finds, for many random networks, issuers and ranges.
func TestPIRACompleteness(t *testing.T) {
	for _, size := range []int{8, 50, 200} {
		eng, objs := buildSingle(t, size, 300, int64(size))
		rng := rand.New(rand.NewSource(int64(size) * 7))
		for trial := 0; trial < 40; trial++ {
			lo := rng.Float64() * 1000
			hi := lo + rng.Float64()*(1000-lo)
			issuer := eng.Network().PeerIDAt(rng.Intn(eng.Network().Size()))
			res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{hi})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]bool)
			for _, o := range objs {
				if o.Values[0] >= lo && o.Values[0] <= hi {
					want[o.Name] = true
				}
			}
			if len(res.Matches) != len(want) {
				t.Fatalf("N=%d [%f,%f]: got %d matches, want %d", size, lo, hi, len(res.Matches), len(want))
			}
			for _, m := range res.Matches {
				if !want[m.Name] {
					t.Fatalf("N=%d: unexpected match %q (value %v)", size, m.Name, m.Values)
				}
			}
		}
	}
}

// Runs is cut only for the callers that read it: RangeQuery and FloodQuery
// return it as consecutive non-empty views of Matches, one per destination
// that contributed; the by-value entry points the facade uses leave it nil
// and return the same Matches.
func TestRunsOnlyOnVariadicPath(t *testing.T) {
	eng, _ := buildSingle(t, 50, 300, 5)
	ctx, issuer, lo, hi := context.Background(), eng.Network().PeerIDs()[7], []float64{200}, []float64{700}
	for name, q := range map[string]struct {
		variadic func() (*RangeResult, error)
		with     func() (RangeResult, error)
	}{
		"range": {
			func() (*RangeResult, error) { return eng.RangeQuery(ctx, issuer, lo, hi) },
			func() (RangeResult, error) { return eng.RangeQueryWith(ctx, issuer, lo, hi, QueryConfig{}) },
		},
		"flood": {
			func() (*RangeResult, error) { return eng.FloodQuery(ctx, issuer, lo, hi) },
			func() (RangeResult, error) { return eng.FloodQueryWith(ctx, issuer, lo, hi, QueryConfig{}) },
		},
	} {
		res, err := q.variadic()
		if err != nil || len(res.Runs) < 2 || len(res.Runs) > len(res.Destinations) {
			t.Fatalf("%s: %d runs over %d destinations, %v; want several", name, len(res.Runs), len(res.Destinations), err)
		}
		n := 0
		for _, run := range res.Runs {
			if len(run) == 0 || &run[0] != &res.Matches[n] {
				t.Fatalf("%s: run at offset %d is not the next non-empty view of Matches", name, n)
			}
			n += len(run)
		}
		if n != len(res.Matches) {
			t.Fatalf("%s: runs hold %d matches, Matches %d", name, n, len(res.Matches))
		}
		plain, err := q.with()
		if err != nil || plain.Runs != nil || !reflect.DeepEqual(plain.Matches, res.Matches) {
			t.Fatalf("%s: by-value result has %d runs and %d matches, %v; want none and the same %d", name, len(plain.Runs), len(plain.Matches), err, n)
		}
	}
}

// peersIntersectingRegion returns, from the global view, the identifiers of
// all peers owning at least one ObjectID in the region, ascending — the
// ground-truth destination set ("Destpeers").
func peersIntersectingRegion(net *fissione.Network, r kautz.Region) []kautz.Str {
	var out []kautz.Str
	for _, id := range net.PeerIDs() {
		if r.ContainsPrefix(id) {
			out = append(out, id)
		}
	}
	return out
}

// Destinations must be exactly the peers whose regions intersect the query
// region, each reached exactly once.
func TestPIRADestinationsExact(t *testing.T) {
	eng, _ := buildSingle(t, 120, 0, 77)
	rng := rand.New(rand.NewSource(78))
	tree := eng.Tree()
	for trial := 0; trial < 60; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*(1000-lo)
		box, err := tree.NewBox([]float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		region, err := tree.QueryRegion(box)
		if err != nil {
			t.Fatal(err)
		}
		issuer := eng.Network().PeerIDAt(rng.Intn(eng.Network().Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		want := peersIntersectingRegion(eng.Network(), region)
		if len(res.Destinations) != len(want) {
			t.Fatalf("destinations %v, want %v", res.Destinations, want)
		}
		for i := range want {
			if res.Destinations[i] != want[i] {
				t.Fatalf("destinations %v, want %v", res.Destinations, want)
			}
		}
		if res.Stats.Deliveries != res.Stats.DestPeers {
			t.Fatalf("duplicate deliveries: %d deliveries for %d destinations",
				res.Stats.Deliveries, res.Stats.DestPeers)
		}
	}
}

// Section 4.3.2: the maximum query delay is below 2·log₂N hops and the
// average below log₂N, independent of range size.
func TestPIRADelayBound(t *testing.T) {
	for _, size := range []int{100, 400, 1000} {
		eng, _ := buildSingle(t, size, 0, int64(size)+3)
		rng := rand.New(rand.NewSource(int64(size) + 4))
		logN := math.Log2(float64(size))
		totalDelay := 0.0
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			width := []float64{2, 20, 200, 900}[trial%4]
			lo := rng.Float64() * (1000 - width)
			issuer := eng.Network().PeerIDAt(rng.Intn(eng.Network().Size()))
			res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + width})
			if err != nil {
				t.Fatal(err)
			}
			if float64(res.Stats.Delay) >= 2*logN {
				t.Fatalf("N=%d: delay %d ≥ 2logN = %.1f", size, res.Stats.Delay, 2*logN)
			}
			if res.Stats.Delay > len(issuer) {
				t.Fatalf("delay %d exceeds issuer ID length %d", res.Stats.Delay, len(issuer))
			}
			totalDelay += float64(res.Stats.Delay)
		}
		if avg := totalDelay / trials; avg >= logN {
			t.Errorf("N=%d: average delay %.2f ≥ logN = %.2f", size, avg, logN)
		}
	}
}

// Section 4.3.2: average message cost ≈ logN + 2n − 2. We verify the shape:
// the per-destination marginal cost (IncreRatio) stays near 2.
func TestPIRAMessageCost(t *testing.T) {
	eng, _ := buildSingle(t, 500, 0, 91)
	rng := rand.New(rand.NewSource(92))
	var sumIncre, samples float64
	for trial := 0; trial < 150; trial++ {
		lo := rng.Float64() * 900
		issuer := eng.Network().PeerIDAt(rng.Intn(eng.Network().Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DestPeers > 1 {
			sumIncre += res.Stats.IncreRatio(eng.Network().Size())
			samples++
		}
	}
	if avg := sumIncre / samples; avg < 1.0 || avg > 2.6 {
		t.Errorf("average IncreRatio = %.2f, want ≈ 2 (paper's bound)", avg)
	}
}

// A full-space query must reach every peer.
func TestPIRAFullSpaceQuery(t *testing.T) {
	eng, objs := buildSingle(t, 60, 100, 101)
	issuer := eng.Network().PeerIDAt(0)
	res, err := eng.RangeQuery(context.Background(), issuer, []float64{0}, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DestPeers != eng.Network().Size() {
		t.Fatalf("full query hit %d/%d peers", res.Stats.DestPeers, eng.Network().Size())
	}
	if len(res.Matches) != len(objs) {
		t.Fatalf("full query found %d/%d objects", len(res.Matches), len(objs))
	}
	if res.Stats.Subregions != 3 {
		t.Fatalf("full query split into %d subregions, want 3", res.Stats.Subregions)
	}
}

// A point query behaves like a lookup: exactly one destination.
func TestPIRAPointQuery(t *testing.T) {
	eng, _ := buildSingle(t, 80, 0, 103)
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 30; trial++ {
		v := rng.Float64() * 1000
		issuer := eng.Network().PeerIDAt(rng.Intn(eng.Network().Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, []float64{v}, []float64{v})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DestPeers != 1 {
			t.Fatalf("point query hit %d peers", res.Stats.DestPeers)
		}
	}
}

func TestLookup(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 150, 111)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(112))
	for trial := 0; trial < 60; trial++ {
		oid := kautz.Hash(objName(trial), testK)
		wantOwner, err := net.OwnerOf(oid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: objName(trial)}); err != nil {
			t.Fatal(err)
		}
		issuer := net.PeerIDAt(rng.Intn(net.Size()))
		res, err := eng.Lookup(context.Background(), issuer, oid)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != wantOwner {
			t.Fatalf("lookup owner %q, want %q", res.Owner, wantOwner)
		}
		found := false
		for _, o := range res.Objects {
			if o.Name == objName(trial) {
				found = true
			}
		}
		if !found {
			t.Fatalf("lookup did not return object %q", objName(trial))
		}
		if res.Stats.Delay > len(issuer) {
			t.Fatalf("lookup delay %d > issuer length %d", res.Stats.Delay, len(issuer))
		}
		if res.Stats.DestPeers != 1 {
			t.Fatalf("lookup hit %d peers", res.Stats.DestPeers)
		}
	}
}

func TestLookupRejectsBadObjectID(t *testing.T) {
	net, err := fissione.New(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Lookup(context.Background(), "0", "0101"); err == nil {
		t.Error("short ObjectID accepted")
	}
}

// Issuing a query from the peer that owns the whole region must cost zero
// messages.
func TestQueryFromOwningPeer(t *testing.T) {
	eng, _ := buildSingle(t, 100, 0, 121)
	// Find a peer and query a tiny range strictly inside its own region.
	id := eng.Network().PeerIDs()[10]
	iv, err := eng.Tree().Subspace(id)
	if err != nil {
		t.Fatal(err)
	}
	mid := (iv[0].Low + iv[0].High) / 2
	res, err := eng.RangeQuery(context.Background(), id, []float64{mid}, []float64{mid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 0 || res.Stats.Delay != 0 {
		t.Fatalf("self-owned query stats = %+v, want zero cost", res.Stats)
	}
	if res.Stats.DestPeers != 1 || res.Destinations[0] != id {
		t.Fatalf("self-owned query destinations = %v", res.Destinations)
	}
}

// MIRA completeness on multi-attribute data against a brute-force oracle.
func TestMIRACompleteness(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 150, 131)
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
	rng := rand.New(rand.NewSource(132))
	type rec struct {
		name string
		v    [2]float64
	}
	var objs []rec
	for i := 0; i < 400; i++ {
		r := rec{name: objName(i), v: [2]float64{rng.Float64() * 100, rng.Float64() * 10}}
		objs = append(objs, r)
		oid, err := tree.Hash(r.v[0], r.v[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: r.name, Values: []float64{r.v[0], r.v[1]}}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 40; trial++ {
		lo := []float64{rng.Float64() * 100, rng.Float64() * 10}
		hi := []float64{lo[0] + rng.Float64()*(100-lo[0]), lo[1] + rng.Float64()*(10-lo[1])}
		issuer := net.PeerIDAt(rng.Intn(net.Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, o := range objs {
			if o.v[0] >= lo[0] && o.v[0] <= hi[0] && o.v[1] >= lo[1] && o.v[1] <= hi[1] {
				want[o.name] = true
			}
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(res.Matches), len(want))
		}
		for _, m := range res.Matches {
			if !want[m.Name] {
				t.Fatalf("unexpected match %q", m.Name)
			}
		}
		logN := math.Log2(float64(net.Size()))
		if float64(res.Stats.Delay) >= 2*logN {
			t.Fatalf("MIRA delay %d ≥ 2logN %.1f", res.Stats.Delay, 2*logN)
		}
	}
}

// MIRA's delay is bounded like PIRA's (Section 5), and its average stays
// below logN.
func TestMIRADelayBound(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 600, 141)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewTree(testK, naming.Space{Low: 0, High: 1}, naming.Space{Low: 0, High: 1}, naming.Space{Low: 0, High: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(142))
	logN := math.Log2(float64(net.Size()))
	total := 0.0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		lo := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		hi := []float64{
			lo[0] + rng.Float64()*(1-lo[0]),
			lo[1] + rng.Float64()*(1-lo[1]),
			lo[2] + rng.Float64()*(1-lo[2]),
		}
		issuer := net.PeerIDAt(rng.Intn(net.Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Stats.Delay) >= 2*logN {
			t.Fatalf("delay %d ≥ 2logN %.2f", res.Stats.Delay, 2*logN)
		}
		total += float64(res.Stats.Delay)
	}
	if avg := total / trials; avg >= logN {
		t.Errorf("average MIRA delay %.2f ≥ logN %.2f", avg, logN)
	}
}

func TestStatsRatios(t *testing.T) {
	s := Stats{Messages: 24, DestPeers: 10}
	if got := s.MesgRatio(); got != 2.4 {
		t.Errorf("MesgRatio = %v", got)
	}
	if got := (Stats{}).MesgRatio(); got != 0 {
		t.Errorf("empty MesgRatio = %v", got)
	}
	// IncreRatio with N=1024: (24 - 10) / 9.
	if got := s.IncreRatio(1024); math.Abs(got-14.0/9) > 1e-12 {
		t.Errorf("IncreRatio = %v", got)
	}
	if got := (Stats{DestPeers: 1}).IncreRatio(1024); got != 0 {
		t.Errorf("single-dest IncreRatio = %v", got)
	}
}

// TestMsgLayout pins what the collector sees of a query's two per-step
// records: a msg is an address pair and a rank interval, a located run the
// owner's and the serving replica's slots and a rank interval — no string,
// slice, pointer or interface at any depth, and small — so a pooled queue of
// them is never scanned, and a delivery or a sort moves a run without a bulk
// write barrier. Peers carried as *Peer would bring back two pointers a run;
// a region carried as strings, two a message. It also pins the result object:
// a Match is its record's two halves and its values, three pointer words in
// 56 bytes, for every fresh result page is zeroed and every object's pointers
// are stored one by one.
func TestMsgLayout(t *testing.T) {
	var pointers func(prefix string, typ reflect.Type) []string
	pointers = func(prefix string, typ reflect.Type) (out []string) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Bool, reflect.Int32, reflect.Uint8, reflect.Uint64:
			case reflect.Struct:
				out = append(out, pointers(prefix+f.Name+".", f.Type)...)
			default:
				out = append(out, prefix+f.Name)
			}
		}
		return out
	}
	for _, tc := range []struct {
		v    any
		max  uintptr
		ptrs int // string and slice fields, one pointer word each
	}{
		{msg{}, 40, 0},
		{located{}, 32, 0},
		{Match{}, 56, 3},
	} {
		typ := reflect.TypeOf(tc.v)
		if size := typ.Size(); size > tc.max {
			t.Errorf("%s is %d bytes, want at most %d", typ.Name(), size, tc.max)
		}
		if p := pointers("", typ); len(p) != tc.ptrs {
			t.Errorf("%s holds %v, which may point into the heap; want %d such fields", typ.Name(), p, tc.ptrs)
		}
	}
}
