package armada

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
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
	}
	for _, q := range cases {
		if _, err := net.Do(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("kind %v: err = %v, want ErrBadQuery", q.Kind, err)
		}
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}, {0, 1}})); !errors.Is(err, ErrBadArity) {
		t.Errorf("extra range err = %v, want ErrBadArity", err)
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{0, 1}}, WithIssuer("nope"))); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("unknown issuer err = %v, want ErrNoSuchPeer", err)
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

// Stream yields exactly Do's result, in Do's order.
func TestStreamMatchesDo(t *testing.T) {
	net := buildQueryNet(t, 100, 300)
	q := NewRange([]Range{{Low: 100, High: 700}}, WithIssuer(net.PeerIDs()[1]))
	res, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var got []Object
	for o, err := range net.Stream(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, o)
	}
	if !reflect.DeepEqual(got, res.Objects) {
		t.Fatalf("stream yielded %d objects, Do returned %d — or in another order", len(got), len(res.Objects))
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
