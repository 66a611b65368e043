package armada

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildQueryNet returns a populated single-attribute network for query
// tests.
func buildQueryNet(t *testing.T, peers, objects int, opts ...Option) *Network {
	t.Helper()
	net, err := NewNetwork(peers, append([]Option{WithSeed(61)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	pubs := make([]Publication, objects)
	for i := range pubs {
		pubs[i] = Publication{Name: objName(i), Values: []float64{float64(i) * 1000 / float64(objects)}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestDoKindInference(t *testing.T) {
	net := buildQueryNet(t, 60, 100)
	// A zero-kind query with a name is a lookup.
	if err := net.PublishExact("doc.txt"); err != nil {
		t.Fatal(err)
	}
	res, err := net.Do(context.Background(), Query{Name: "doc.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner == "" {
		t.Fatal("inferred lookup returned no owner")
	}
	// A zero-kind query with ranges is a range query.
	res, err = net.Do(context.Background(), Query{Ranges: []Range{{Low: 0, High: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DestPeers != net.Size() {
		t.Fatalf("inferred range query hit %d/%d peers", res.Stats.DestPeers, net.Size())
	}
	// A zero-kind query with K set is a top-k query, not an unbounded range.
	res, err = net.Do(context.Background(), Query{Ranges: []Range{{Low: 0, High: 1000}}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 4 {
		t.Fatalf("inferred top-k returned %d objects, want 4", len(res.Objects))
	}
}

func TestDoValidation(t *testing.T) {
	net := buildQueryNet(t, 20, 0)
	cases := []Query{
		{Kind: KindLookup}, // lookup without a name
		{Kind: KindTopK, Ranges: []Range{{Low: 0, High: 10}}},     // top-k without K
		{Kind: QueryKind(99), Ranges: []Range{{Low: 0, High: 1}}}, // unknown kind
		// a negative queue wait lowered the caller's time
		NewRange([]Range{{Low: 0, High: 10}}, WithQueueWait(-time.Millisecond)),
	}
	for _, q := range cases {
		if _, err := net.Do(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("kind %v: err = %v, want ErrBadQuery", q.Kind, err)
		}
	}
	// A stream and a session page refuse the negative queue wait too.
	waited := NewRange([]Range{{Low: 0, High: 10}}, WithQueueWait(-time.Millisecond), WithLimit(5))
	for _, err := range net.Stream(context.Background(), waited) {
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("stream with a negative queue wait: err = %v, want ErrBadQuery", err)
		}
	}
	if sess, err := net.OpenSession(waited); err != nil {
		t.Fatal(err)
	} else if _, err := sess.Next(context.Background()); !errors.Is(err, ErrBadQuery) {
		t.Errorf("session page with a negative queue wait: err = %v, want ErrBadQuery", err)
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}, {0, 1}})); !errors.Is(err, ErrBadArity) {
		t.Errorf("extra range err = %v, want ErrBadArity", err)
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}}, WithIssuer("nope"))); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("unknown issuer err = %v, want ErrNoSuchPeer", err)
	}
}

// Peer names are untrusted input at every door that takes one: whatever the
// string, a name that is no live peer's identifier is ErrNoSuchPeer — never a
// panic in the walk that resolves it — and changes nothing.
func TestUnknownPeerNamesAtEveryDoor(t *testing.T) {
	net := buildQueryNet(t, 40, 80)
	ctx, live := context.Background(), net.PeerIDs()[11]
	next := byte('0')
	if live[len(live)-1] == next {
		next = '1'
	}
	for _, name := range []string{
		"no-such-peer", "3", "0\x00", "\xff\xfe", "00", live[:1] + live, // not Kautz strings
		strings.Repeat("01", 30), // valid, longer than any identifier
		live + string(next),      // valid, extends a live identifier
		live[:len(live)-1],       // valid, an inner node of the cover
	} {
		doors := map[string]func() error{
			"Leave": func() error { return net.Leave(name) },
			"Fail":  func() error { return net.Fail(name) },
			"Do":    func() error { _, err := net.Do(ctx, NewRange([]Range{{0, 500}}, WithIssuer(name))); return err },
			"Do lookup": func() error {
				_, err := net.Do(ctx, NewValueLookup([]float64{37.5}, WithIssuer(name)))
				return err
			},
			"Stream": func() (err error) {
				for _, err = range net.Stream(ctx, NewRange([]Range{{0, 500}}, WithIssuer(name))) {
					break
				}
				return err
			},
			"OpenSession": func() error {
				_, err := net.OpenSession(NewRange([]Range{{0, 500}}, WithIssuer(name), WithLimit(10)))
				return err
			},
		}
		for door, call := range doors {
			if err := call(); !errors.Is(err, ErrNoSuchPeer) {
				t.Errorf("%s(%q): err = %v, want ErrNoSuchPeer", door, name, err)
			}
		}
	}
	// The empty name is no peer either; as an issuer it means "any".
	if err := errors.Join(net.Leave(""), net.Fail("")); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("Leave/Fail of the empty name: %v, want ErrNoSuchPeer", err)
	}
	if net.Size() != 40 {
		t.Fatalf("%d peers after refused departures, want 40", net.Size())
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The flood ablation is reachable through the unified API and returns the
// same result set as the pruned search.
func TestDoFloodMatchesRange(t *testing.T) {
	net := buildQueryNet(t, 100, 150)
	issuer := net.PeerIDs()[0]
	ranges := []Range{{Low: 250, High: 750}}
	pruned, err := net.Do(context.Background(), NewRange(ranges, WithIssuer(issuer)))
	if err != nil {
		t.Fatal(err)
	}
	flooded, err := net.Do(context.Background(), NewRange(ranges, WithIssuer(issuer), WithFlood()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Objects, flooded.Objects) {
		t.Fatalf("flood objects diverge: %d vs %d", len(flooded.Objects), len(pruned.Objects))
	}
	if flooded.Stats.Messages < pruned.Stats.Messages {
		t.Fatalf("flood cheaper than pruned: %d < %d", flooded.Stats.Messages, pruned.Stats.Messages)
	}
}

// The flood ablation honors WithTrace like the pruned search: forwards
// equal Stats.Messages, deliveries equal Stats.DestPeers.
func TestDoFloodTraced(t *testing.T) {
	net := buildQueryNet(t, 80, 100)
	var mu sync.Mutex
	forwards, deliveries := 0, 0
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 100, High: 400}},
		WithIssuer(net.PeerIDs()[0]), WithFlood(),
		WithTrace(func(h Hop) {
			mu.Lock()
			defer mu.Unlock()
			if h.From == h.To && h.Remaining == 0 {
				deliveries++
			} else {
				forwards++
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	if forwards != res.Stats.Messages {
		t.Fatalf("flood trace saw %d forwards, stats say %d messages", forwards, res.Stats.Messages)
	}
	if deliveries != res.Stats.DestPeers {
		t.Fatalf("flood trace saw %d deliveries, stats say %d destinations", deliveries, res.Stats.DestPeers)
	}
}

// Mutating the network from inside a Stream loop must not deadlock: the
// descent never blocks on the consumer, so the read lock is released
// independently of the loop body.
func TestStreamLoopBodyMayMutate(t *testing.T) {
	net := buildQueryNet(t, 80, 200)
	published := 0
	for o, err := range net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})) {
		if err != nil {
			t.Fatal(err)
		}
		if published < 3 {
			if err := net.Publish("echo-"+o.Name, 999); err != nil {
				t.Fatal(err)
			}
			published++
		}
	}
	if published != 3 {
		t.Fatalf("published %d objects from inside the loop", published)
	}
}

// Cancelling the context mid-descent aborts the query with ctx's error.
func TestDoCancellationMidQuery(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"sync", nil},
	} {
		t.Run(mode.name, func(t *testing.T) {
			net := buildQueryNet(t, 200, 100, mode.opts...)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelOnce sync.Once
			q := NewRange([]Range{{Low: 0, High: 1000}},
				WithIssuer(net.PeerIDs()[0]),
				// Cancel from inside the descent, after the first hop.
				WithTrace(func(Hop) { cancelOnce.Do(cancel) }),
			)
			if _, err := net.Do(ctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestDoPreCancelledContext(t *testing.T) {
	net := buildQueryNet(t, 50, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 1000}})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Do is safe for heavy concurrent use — plain, traced and streamed queries
// all running together under -race.
func TestConcurrentDo(t *testing.T) {
	net := buildQueryNet(t, 120, 200)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				lo := float64((g*100 + i*30) % 800)
				switch g % 4 {
				case 0: // plain range query, random issuer
					res, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 150}}))
					if err != nil {
						errs <- err
						return
					}
					if res.Stats.DestPeers == 0 {
						errs <- errors.New("query reached no peers")
						return
					}
				case 1: // traced query — per-query tracing must not serialize
					var mu sync.Mutex
					hops := 0
					res, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 150}},
						WithTrace(func(Hop) { mu.Lock(); hops++; mu.Unlock() })))
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					h := hops
					mu.Unlock()
					if h < res.Stats.Messages {
						errs <- fmt.Errorf("trace saw %d hops for %d messages", h, res.Stats.Messages)
						return
					}
				case 2: // top-k
					if _, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 1000}}, WithTopK(3))); err != nil {
						errs <- err
						return
					}
				case 3: // streaming
					for _, err := range net.Stream(ctx, NewRange([]Range{{Low: lo, High: lo + 150}})) {
						if err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Stream yields exactly Do's result, in Do's order: every kind that streams,
// PIRA and MIRA, with and without replication (primary reads, so the serving
// peers compare too), at every result size a page cut can fall around.
func TestStreamMatchesDo(t *testing.T) {
	ctx := context.Background()
	sizes := []struct {
		name           string
		distinct, tied int
	}{
		{"0", 0, 0},
		{"1", 1, 0},
		{"page-1", streamPage - 1, 0},
		{"page", streamPage, 0},
		{"page+1", streamPage + 1, 0},
		{"3 pages and a tail", 3*streamPage + 7, 0},
		{"equal ObjectIDs across a page cut", streamPage - 5, 10},
	}
	for _, attrs := range []int{1, 2} {
		for _, k := range []int{1, 2} {
			for _, sz := range sizes {
				t.Run(fmt.Sprintf("attrs=%d/k=%d/%s", attrs, k, sz.name), func(t *testing.T) {
					opts := []Option{WithSeed(61), WithReplication(k)}
					if attrs == 2 {
						opts = append(opts, WithAttributes(AttributeSpace{Low: 0, High: 1000}, AttributeSpace{Low: 0, High: 100}))
					}
					net, err := NewNetwork(100, opts...)
					if err != nil {
						t.Fatal(err)
					}
					// The box holds `distinct` objects along its diagonal and
					// `tied` on its top corner — one ObjectID, the box's largest:
					// naming preserves order per attribute, so a point that
					// dominates another never sorts before it. As many objects
					// sit on one point outside the box for the value lookup, and
					// decoys lie around both.
					box := []Range{{Low: 100, High: 700}, {Low: 20, High: 60}}[:attrs]
					corner, spot := []float64{700, 60}[:attrs], []float64{900, 90}[:attrs]
					n := sz.distinct + sz.tied
					pubs := []Publication{
						{Name: "below", Values: []float64{50, 10}[:attrs]},
						{Name: "above", Values: []float64{800, 80}[:attrs]},
						{Name: "beside", Values: []float64{400, 80}[:attrs]}, // MIRA: in range on one attribute only
					}
					if attrs == 1 {
						pubs = pubs[:2]
					}
					for i := 0; i < n; i++ {
						f := float64(i) / float64(n)
						at := []float64{100 + 599*f, 20 + 39*f}[:attrs]
						if i >= sz.distinct {
							at = corner
						}
						pubs = append(pubs,
							Publication{Name: fmt.Sprintf("o%d", i), Values: at},
							Publication{Name: fmt.Sprintf("s%d", i), Values: spot})
					}
					if err := net.PublishBatch(pubs); err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						kind string
						q    Query
					}{
						{"range", NewRange(box, WithIssuer(net.PeerIDs()[1]))},
						{"flood", NewRange(box, WithFlood())},
						{"value lookup", NewValueLookup(spot)},
					} {
						res, err := net.Do(ctx, c.q)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Objects) != n {
							t.Fatalf("%s: Do returned %d objects, the row wants %d", c.kind, len(res.Objects), n)
						}
						if sz.tied > 0 && res.Objects[streamPage-1].ID != res.Objects[streamPage].ID {
							t.Fatalf("%s: no run of equal ObjectIDs across the first page cut", c.kind)
						}
						var got []Object
						for o, err := range net.Stream(ctx, c.q) {
							if err != nil {
								t.Fatal(err)
							}
							got = append(got, o)
						}
						if !reflect.DeepEqual(got, res.Objects) {
							t.Fatalf("%s: stream yielded %d objects, Do returned %d — or in another order", c.kind, len(got), len(res.Objects))
						}
					}
				})
			}
		}
	}
}

// TestResultDoesNotAliasStore pins the no-alias contract where results are
// built: whatever surface returned them, a caller may overwrite every
// Values slice of a result and neither the stores (re-queried, audited
// across replicas) nor the other objects of the same result (which share
// one backing array, each capped to its own length) notice.
func TestResultDoesNotAliasStore(t *testing.T) {
	net := buildQueryNet(t, 120, 600, WithReplication(2))
	defer net.Close()
	ctx := context.Background()
	ranges := []Range{{Low: 200, High: 700}}
	stream := func(q Query) (objs []Object) {
		for o, err := range net.Stream(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		return objs
	}
	do := func(q Query) []Object {
		res, err := net.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Objects
	}
	surfaces := []struct {
		name string
		run  func() []Object
	}{
		{"Do", func() []Object { return do(NewRange(ranges)) }},
		{"Stream", func() []Object { return stream(NewRange(ranges)) }},
		{"session page", func() []Object {
			sess, err := net.OpenSession(NewRange(ranges), WithLimit(40))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			res, err := sess.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return res.Objects
		}},
		{"lookup", func() []Object { return do(NewValueLookup([]float64{500})) }},
		{"top-k", func() []Object { return do(NewRange(ranges, WithTopK(25))) }},
	}
	// Serving replicas rotate between runs; the contract is about values.
	strip := func(objs []Object) []Object {
		out := make([]Object, len(objs))
		for i, o := range objs {
			out[i] = Object{Name: o.Name, Values: append([]float64(nil), o.Values...), ID: o.ID}
		}
		return out
	}
	for _, sf := range surfaces {
		first := sf.run()
		if len(first) == 0 {
			t.Fatalf("%s: empty result", sf.name)
		}
		want := strip(first)
		for i := range first {
			_ = append(first[i].Values, -1) // must not spill into the neighbour
			if i+1 < len(first) && !reflect.DeepEqual(first[i+1].Values, want[i+1].Values) {
				t.Fatalf("%s: appending to object %d's values overwrote object %d's", sf.name, i, i+1)
			}
			for j := range first[i].Values {
				first[i].Values[j] = -1
			}
		}
		if got := strip(sf.run()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-query differs after the first result's values were overwritten", sf.name)
		}
		if err := net.Audit(); err != nil {
			t.Errorf("%s: audit after mutation: %v", sf.name, err)
		}
	}
}

// Breaking out of a Stream loop cancels the underlying query cleanly.
func TestStreamEarlyBreak(t *testing.T) {
	net := buildQueryNet(t, 100, 300)
	seen := 0
	for _, err := range net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 2 {
			break
		}
	}
	if seen != 2 {
		t.Fatalf("saw %d objects, want 2", seen)
	}
	// The network must remain fully usable afterwards.
	if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})); err != nil {
		t.Fatal(err)
	}
}

// Breaking out of a Stream costs the page in flight, not the query: a
// consumer that leaves a wide range at its first object allocates what one
// page does, however much of the range lay ahead.
func TestStreamBreakCostsOnePage(t *testing.T) {
	net := buildQueryNet(t, 200, 40*streamPage)
	ctx := context.Background()
	whole := []Range{{Low: 0, High: 1000}}
	// The least of several runs: the engine's pooled query state is rebuilt
	// on the first, and on any run the race detector's sync.Pool dropped it for.
	allocated := func(f func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	page := allocated(func() {
		if res, err := net.Do(ctx, NewRange(whole, WithLimit(streamPage))); err != nil || res.NextOffsetID == "" {
			t.Fatalf("one page of the range: %v, %v; want a page with more behind it", res, err)
		}
	})
	broken := allocated(func() {
		for _, err := range net.Stream(ctx, NewRange(whole)) {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	})
	if broken > 2*page {
		t.Fatalf("a stream broken at its first object allocated %d bytes, one page of the same range %d", broken, page)
	}
}

// A stream runs on its caller's goroutine and leaves nothing behind, however
// it ends. (The counts are compared one way: a goroutine an earlier test left
// exiting can lower them, a stream could only raise them.)
func TestStreamStartsNoGoroutine(t *testing.T) {
	net := buildQueryNet(t, 100, 3*streamPage)
	q := NewRange([]Range{{Low: 0, High: 1000}})
	outside := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		for _, err := range net.Stream(ctx, q) {
			if inside := runtime.NumGoroutine(); inside > outside {
				t.Fatalf("%d goroutines inside the loop body, %d outside it", inside, outside)
			}
			if seen++; err != nil && !(i%4 == 3 && errors.Is(err, context.Canceled)) {
				t.Fatal(err)
			}
			if i%4 == 1 && seen == 1 || i%4 == 2 && seen == streamPage { // the first object; a page boundary
				break
			}
			if i%4 == 3 && seen == 1 {
				cancel()
			}
		} // i%4 == 0 drains
		cancel()
	}
	if after := runtime.NumGoroutine(); after > outside {
		t.Fatalf("%d goroutines after 200 streams, %d before", after, outside)
	}
}

// Cancellation is seen between pages: the page already copied is yielded to
// its end, then ctx's error as the final pair and nothing after it; a ctx
// cancelled before the first page yields no object at all.
func TestStreamCancellation(t *testing.T) {
	net := buildQueryNet(t, 100, 3*streamPage)
	q := NewRange([]Range{{Low: 0, High: 1000}})
	first, err := net.Do(context.Background(), NewRange(q.Ranges, WithLimit(streamPage)))
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelAt := range []int{0, 1} { // before the first page; inside it
		ctx, cancel := context.WithCancel(context.Background())
		if cancelAt == 0 {
			cancel()
		}
		objects := 0
		var final error
		for _, err := range net.Stream(ctx, q) {
			if final != nil {
				t.Fatalf("cancel at %d: a pair after the terminal error", cancelAt)
			}
			if err != nil {
				final = err
				continue
			}
			if objects++; objects == cancelAt {
				cancel()
			}
		}
		cancel()
		if want := cancelAt * len(first.Objects); objects != want || !errors.Is(final, context.Canceled) {
			t.Fatalf("cancel at %d: %d objects then %v; want %d then context.Canceled", cancelAt, objects, final, want)
		}
	}
}

// A Stream's Seq may be ranged again: each iteration pins its own issuer, so
// a query that named none does not inherit one whose identifier has left the
// network since the last run.
func TestStreamSeqRangedAgain(t *testing.T) {
	net := buildQueryNet(t, 100, 100)
	var issuer string // the peer the run's first hop left from
	seq := net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}, WithTrace(func(h Hop) {
		if issuer == "" {
			issuer = h.From
		}
	})))
	gone := 0 // a Leave may hand the identifier to another peer; count those that retire it
	for run := 0; run < 30; run++ {
		issuer = ""
		objects := 0
		for _, err := range seq {
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			objects++
		}
		if objects != 100 || issuer == "" {
			t.Fatalf("run %d yielded %d objects from issuer %q, want 100", run, objects, issuer)
		}
		if err := net.Leave(issuer); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(net.PeerIDs(), issuer) {
			gone++
		}
	}
	if gone == 0 {
		t.Fatal("no run's issuer identifier left the network")
	}
}

// Breaking on an object yielded after the descent already finished (the
// final drain) must not hang waiting for the query goroutine.
func TestStreamBreakAfterCompletion(t *testing.T) {
	net := buildQueryNet(t, 80, 120)
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Objects)
	for trial := 0; trial < 20; trial++ {
		seen := 0
		for _, err := range net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})) {
			if err != nil {
				t.Fatal(err)
			}
			seen++
			if seen == total { // the last object: the descent has finished
				break
			}
		}
	}
}

func TestStreamLookupAndErrors(t *testing.T) {
	net := buildQueryNet(t, 60, 0)
	if err := net.PublishExact("blob"); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for o, err := range net.Stream(context.Background(), NewLookup("blob")) {
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, o.Name)
	}
	if len(names) != 1 || names[0] != "blob" {
		t.Fatalf("stream lookup yielded %v", names)
	}
	// Top-k cannot stream.
	for _, err := range net.Stream(context.Background(), NewRange([]Range{{0, 1}}, WithTopK(2))) {
		if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("top-k stream err = %v, want ErrBadQuery", err)
		}
	}
	// Query errors surface through the iterator.
	sawErr := false
	for _, err := range net.Stream(context.Background(), NewRange(nil)) {
		if err != nil {
			sawErr = true
			if !errors.Is(err, ErrBadArity) {
				t.Fatalf("stream err = %v, want ErrBadArity", err)
			}
		}
	}
	if !sawErr {
		t.Fatal("bad-arity stream yielded no error")
	}
}

func TestPublishBatch(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(67))
	if err != nil {
		t.Fatal(err)
	}
	pubs := []Publication{
		{Name: "a", Values: []float64{100}},
		{Name: "b", Values: []float64{200}},
		{Name: "c", Values: []float64{300}},
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 50, High: 250}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 2 {
		t.Fatalf("batch query found %v", res.Objects)
	}
	// A bad publication aborts the batch with its index; earlier objects
	// stay published.
	err = net.PublishBatch([]Publication{
		{Name: "d", Values: []float64{400}},
		{Name: "bad", Values: []float64{1, 2}},
	})
	if !errors.Is(err, ErrBadArity) {
		t.Fatalf("bad batch err = %v", err)
	}
	res, err = net.Do(context.Background(), NewRange([]Range{{Low: 350, High: 450}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || res.Objects[0].Name != "d" {
		t.Fatalf("partial batch state = %v", res.Objects)
	}
}

// RandomPeer must not block behind in-flight queries (it used to take the
// write lock).
func TestRandomPeerConcurrentWithQueries(t *testing.T) {
	net := buildQueryNet(t, 100, 100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if net.RandomPeer() == "" {
					t.Error("empty peer id")
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 500}})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIssuerDrawIsSeeded: the default-issuer draw is a function of the seed —
// one seed gives the same 10k draws on two networks, spread evenly over the
// peers (a chi-square test), and another seed gives another sequence.
func TestIssuerDrawIsSeeded(t *testing.T) {
	const peers, draws = 200, 10000
	seq := func(seed int64) (ids, out []string) {
		net, err := NewNetwork(peers, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		out = make([]string, draws)
		for i := range out {
			out[i] = net.RandomPeer()
		}
		return net.PeerIDs(), out
	}
	ids, a := seq(7)
	if _, again := seq(7); !reflect.DeepEqual(a, again) {
		t.Fatal("one seed drew two sequences")
	}
	if _, b := seq(8); reflect.DeepEqual(a[:100], b[:100]) {
		t.Fatal("two seeds drew one sequence")
	}
	counts := make(map[string]int)
	for _, id := range a {
		counts[id]++
	}
	// 199 degrees of freedom: mean 199, sd √398 ≈ 20; refuse beyond 5 sd.
	want, chi2 := float64(draws)/peers, 0.0
	for _, id := range ids {
		d := float64(counts[id]) - want
		chi2 += d * d / want
	}
	if len(counts) != peers || chi2 > 199+5*20 {
		t.Errorf("%d of %d peers drawn, chi-square %.1f: the draw is not uniform", len(counts), peers, chi2)
	}
}

func TestQueryKindString(t *testing.T) {
	for k, want := range map[QueryKind]string{
		KindLookup: "lookup", KindRange: "range", KindTopK: "top-k",
		KindFlood: "flood", QueryKind(42): "QueryKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("QueryKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
