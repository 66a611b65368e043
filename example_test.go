package armada_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"armada"
	"armada/internal/can"
	"armada/internal/dcfcan"
)

// students builds a 256-peer network whose objects carry one attribute in
// [0, 100] and publishes eight exam scores in one batch. Armada's
// order-preserving naming places close scores on the same or neighbouring
// peers.
func students() *armada.Network {
	net, err := armada.NewNetwork(256,
		armada.WithSeed(2006),
		armada.WithAttributes(armada.AttributeSpace{Low: 0, High: 100}),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.PublishBatch([]armada.Publication{
		{Name: "alice", Values: []float64{83.5}}, {Name: "bob", Values: []float64{72.0}},
		{Name: "carol", Values: []float64{91.2}}, {Name: "dave", Values: []float64{65.5}},
		{Name: "eve", Values: []float64{78.3}}, {Name: "frank", Values: []float64{70.0}},
		{Name: "grace", Values: []float64{80.0}}, {Name: "heidi", Values: []float64{55.1}},
	}); err != nil {
		log.Fatal(err)
	}
	return net
}

// bound is the paper's delay bound on a network of n peers, 2·log₂N.
func bound(n int) float64 { return 2 * math.Log2(float64(n)) }

// The paper's motivating query, 70 ≤ score ≤ 80, and what it cost.
func ExampleNetwork_Do() {
	net := students()
	res, err := net.Do(context.Background(), armada.NewRange([]armada.Range{{Low: 70, High: 80}}))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Objects {
		fmt.Println(o.Name, o.Values[0])
	}
	fmt.Printf("delay %d hops (bound %.1f), %d messages, %d destination peers\n",
		res.Stats.Delay, bound(net.Size()), res.Stats.Messages, res.Stats.DestPeers)
	// Output:
	// frank 70
	// bob 72
	// eve 78.3
	// grace 80
	// delay 8 hops (bound 16.0), 51 messages, 26 destination peers
}

// The same query streamed: objects arrive in Do's order, a page of the walk
// at a time. A trace sees every overlay message; a forward at depth d is
// processed at d+1, so the deepest forward plus one is Do's delay.
func ExampleNetwork_Stream() {
	net := students()
	ctx := context.Background()
	score := []armada.Range{{Low: 70, High: 80}}
	issuer := armada.WithIssuer(net.PeerIDs()[0])
	var forwards, deliveries, delay int
	var streamed []string
	for o, err := range net.Stream(ctx, armada.NewRange(score, issuer, armada.WithTrace(func(h armada.Hop) {
		if h.From == h.To && h.Remaining == 0 {
			deliveries++
			return
		}
		forwards++
		delay = max(delay, h.Depth+1)
	}))) {
		if err != nil {
			log.Fatal(err)
		}
		streamed = append(streamed, o.Name)
	}
	res, err := net.Do(ctx, armada.NewRange(score, issuer))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed", streamed, "in Do's order:", slices.Equal(streamed, names(res.Objects)))
	fmt.Printf("trace: delay %d, %d messages, %d deliveries\n", delay, forwards, deliveries)
	fmt.Printf("Do:    delay %d, %d messages, %d destination peers\n",
		res.Stats.Delay, res.Stats.Messages, res.Stats.DestPeers)
	// Output:
	// streamed [frank bob eve grace] in Do's order: true
	// trace: delay 7, 55 messages, 26 deliveries
	// Do:    delay 7, 55 messages, 26 destination peers
}

// names lists the objects' names in result order.
func names(objs []armada.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Name
	}
	return out
}

// A grid information service answering the paper's multi-attribute query,
// 1GB ≤ memory ≤ 4GB and 50GB ≤ disk ≤ 200GB, with MIRA; then the same
// ranges retargeted to the three matching hosts with the most memory.
func ExampleNetwork_Do_multiAttribute() {
	net, err := armada.NewNetwork(2000,
		armada.WithSeed(11),
		armada.WithAttributes(
			armada.AttributeSpace{Low: 0, High: 64},   // memory GB
			armada.AttributeSpace{Low: 0, High: 2000}, // disk GB
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	mems := []float64{0.5, 1, 2, 4, 8, 16, 32, 64}
	fleet := make([]armada.Publication, 3000)
	matching := 0
	for i := range fleet {
		mem, disk := mems[rng.Intn(len(mems))], float64(rng.Intn(2000)+1)
		if mem >= 1 && mem <= 4 && disk >= 50 && disk <= 200 {
			matching++
		}
		fleet[i] = armada.Publication{Name: fmt.Sprintf("host-%04d", i), Values: []float64{mem, disk}}
	}
	if err := net.PublishBatch(fleet); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	ranges := []armada.Range{{Low: 1, High: 4}, {Low: 50, High: 200}}
	res, err := net.Do(ctx, armada.NewRange(ranges))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d of %d hosts (expected %d)\n", len(res.Objects), len(fleet), matching)
	fmt.Printf("delay %d hops (bound %.1f), %d messages, %d destination peers\n",
		res.Stats.Delay, bound(net.Size()), res.Stats.Messages, res.Stats.DestPeers)
	top, err := net.Do(ctx, armada.NewRange(ranges, armada.WithTopK(3)))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range top.Objects {
		fmt.Println(o.Name, o.Values)
	}
	// Output:
	// found 79 of 3000 hosts (expected 79)
	// delay 11 hops (bound 21.9), 39 messages, 17 destination peers
	// host-0136 [4 133]
	// host-0201 [4 89]
	// host-0497 [4 69]
}

// Exact-match lookup through the same DHT: one descent to the owner of the
// name's Kautz hash.
func ExampleNetwork_Do_lookup() {
	net, err := armada.NewNetwork(64, armada.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	if err := net.PublishExact("report.pdf"); err != nil {
		log.Fatal(err)
	}
	res, err := net.Do(context.Background(), armada.NewLookup("report.pdf", armada.WithIssuer(net.PeerIDs()[0])))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on owner %s after %d hops\n", res.Objects[0].Name, res.Owner, res.Stats.Delay)
	// Output:
	// report.pdf on owner 20120 after 6 hops
}

// A session walks a large range result page by page. Page 1 descends; every
// later page messages only the owner under its positional cursor. A second
// walk of the same range finds page 1's owners in the route cache and
// descends not at all.
func ExampleNetwork_OpenSession() {
	net, err := armada.NewNetwork(400, armada.WithSeed(2006), armada.WithShortcutTable(256))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pubs := make([]armada.Publication, 6000)
	matching := 0
	for i := range pubs {
		v := rng.Float64() * 1000
		if v >= 100 && v <= 400 {
			matching++
		}
		pubs[i] = armada.Publication{Name: fmt.Sprintf("reading-%05d", i), Values: []float64{v}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		log.Fatal(err)
	}

	for walk := 1; walk <= 2; walk++ {
		sess, err := net.OpenSession(armada.NewRange([]armada.Range{{Low: 100, High: 400}}), armada.WithLimit(512))
		if err != nil {
			log.Fatal(err)
		}
		for sess.More() {
			res, err := sess.Next(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			how := "descended"
			switch {
			case res.Stats.FrontierHits > 0:
				how = "cache-seeded"
			case res.Stats.DescentsSaved > 0:
				how = "positional"
			}
			fmt.Printf("page: %d objects, %d messages, delay %d, %s\n",
				len(res.Objects), res.Stats.Messages, res.Stats.Delay, how)
		}
		st := sess.Stats()
		fmt.Printf("walk %d: %d objects (expected %d) over %d pages, %d messages, %d descents saved, %d cache hits\n",
			walk, st.Objects, matching, st.Pages, st.Messages, st.DescentsSaved, st.FrontierHits)
		sess.Close()
	}
	cs, _ := net.ShortcutTableStats()
	fmt.Printf("route cache: %d of %d owners, %d hits, %d misses, %d stale\n",
		cs.Entries, cs.Capacity, cs.Hits, cs.Misses, cs.Stale)
	// Output:
	// page: 512 objects, 247 messages, delay 8, descended
	// page: 512 objects, 34 messages, delay 1, positional
	// page: 512 objects, 38 messages, delay 1, positional
	// page: 293 objects, 21 messages, delay 1, positional
	// walk 1: 1829 objects (expected 1829) over 4 pages, 340 messages, 3 descents saved, 0 cache hits
	// page: 512 objects, 123 messages, delay 1, cache-seeded
	// page: 512 objects, 34 messages, delay 1, positional
	// page: 512 objects, 38 messages, delay 1, positional
	// page: 293 objects, 21 messages, delay 1, positional
	// walk 2: 1829 objects (expected 1829) over 4 pages, 216 messages, 4 descents saved, 1 cache hits
	// route cache: 123 of 256 owners, 1 hits, 1 misses, 0 stale
}

// Peers join and leave while queries keep running. After every round of
// churn the overlay passes Audit, a range query stays exact against the
// known data set, and its delay stays under 2·log₂N.
func Example_churn() {
	net, err := armada.NewNetwork(300, armada.WithSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	topo := net.Topology()
	fmt.Printf("%d peers, average degree %.2f, id length %d/%.1f/%d\n",
		topo.Peers, topo.AvgDegree, topo.MinIDLength, topo.AvgIDLength, topo.MaxIDLength)
	pubs := make([]armada.Publication, 500)
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("obj-%04d", i), Values: []float64{float64(2 * i)}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(32))
	for round := 1; round <= 10; round++ {
		for range 40 {
			if rng.Intn(2) == 0 {
				_, err = net.Join()
			} else {
				ids := net.PeerIDs()
				err = net.Leave(ids[rng.Intn(len(ids))])
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		audit := "ok"
		if err := net.Audit(); err != nil {
			audit = err.Error()
		}
		lo := rng.Float64() * 800
		res, err := net.Do(context.Background(), armada.NewRange([]armada.Range{{Low: lo, High: lo + 100}}))
		if err != nil {
			log.Fatal(err)
		}
		want := 0
		for _, p := range pubs {
			if v := p.Values[0]; v >= lo && v <= lo+100 {
				want++
			}
		}
		topo := net.Topology()
		fmt.Printf("round %2d: %d peers, id length %d/%.1f/%d, audit %s, delay %d < %.1f, found %d (expected %d)\n",
			round, topo.Peers, topo.MinIDLength, topo.AvgIDLength, topo.MaxIDLength,
			audit, res.Stats.Delay, bound(topo.Peers), len(res.Objects), want)
	}
	// Output:
	// 300 peers, average degree 4.00, id length 7/7.7/9
	// round  1: 288 peers, id length 6/7.7/8, audit ok, delay 7 < 16.3, found 50 (expected 50)
	// round  2: 286 peers, id length 6/7.7/8, audit ok, delay 8 < 16.3, found 50 (expected 50)
	// round  3: 280 peers, id length 7/7.6/8, audit ok, delay 7 < 16.3, found 50 (expected 50)
	// round  4: 278 peers, id length 7/7.6/8, audit ok, delay 5 < 16.2, found 50 (expected 50)
	// round  5: 274 peers, id length 7/7.6/8, audit ok, delay 6 < 16.2, found 50 (expected 50)
	// round  6: 274 peers, id length 7/7.6/9, audit ok, delay 8 < 16.2, found 50 (expected 50)
	// round  7: 274 peers, id length 6/7.6/9, audit ok, delay 8 < 16.2, found 50 (expected 50)
	// round  8: 280 peers, id length 7/7.6/8, audit ok, delay 8 < 16.3, found 50 (expected 50)
	// round  9: 278 peers, id length 6/7.6/9, audit ok, delay 7 < 16.2, found 50 (expected 50)
	// round 10: 270 peers, id length 6/7.6/8, audit ok, delay 8 < 16.2, found 50 (expected 50)
}

// A miniature of the paper's evaluation: PIRA and the DCF-CAN baseline
// (directed controlled flooding over a 2-d CAN) answer the same queries over
// the same records. Their result sets are equal, and only DCF-CAN's worst
// delay breaks the 2·log₂N bound.
func Example_baseline() {
	const peers, records, queries = 1000, 2000, 100
	anet, err := armada.NewNetwork(peers, armada.WithSeed(100))
	if err != nil {
		log.Fatal(err)
	}
	cnet, err := can.BuildRandom(peers, 101)
	if err != nil {
		log.Fatal(err)
	}
	dcf, err := dcfcan.New(cnet, 9, 0, 1000)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	pubs := make([]armada.Publication, records)
	for i := range pubs {
		pubs[i] = armada.Publication{Name: fmt.Sprintf("rec-%05d", i), Values: []float64{rng.Float64() * 1000}}
		if _, err := dcf.Publish(pubs[i].Name, pubs[i].Values[0]); err != nil {
			log.Fatal(err)
		}
	}
	if err := anet.PublishBatch(pubs); err != nil {
		log.Fatal(err)
	}

	type cost struct{ delay, maxDelay, msgs int }
	var pira, flood cost
	add := func(c *cost, delay, msgs int) {
		c.delay += delay
		c.maxDelay = max(c.maxDelay, delay)
		c.msgs += msgs
	}
	equal := 0
	qrng := rand.New(rand.NewSource(102))
	for range queries {
		width := 10 + qrng.Float64()*190
		lo := qrng.Float64() * (1000 - width)
		ares, err := anet.Do(context.Background(), armada.NewRange([]armada.Range{{Low: lo, High: lo + width}}))
		if err != nil {
			log.Fatal(err)
		}
		dres, err := dcf.RangeQuery(cnet.RandomZone(qrng), lo, lo+width)
		if err != nil {
			log.Fatal(err)
		}
		got, want := names(ares.Objects), make([]string, len(dres.Matches))
		for i, m := range dres.Matches {
			want[i] = m.Name
		}
		slices.Sort(got)
		slices.Sort(want)
		if slices.Equal(got, want) {
			equal++
		}
		add(&pira, ares.Stats.Delay, ares.Stats.Messages)
		add(&flood, dres.Stats.Delay, dres.Stats.Messages)
	}
	fmt.Printf("%d peers, %d records: equal result sets on %d of %d queries\n", peers, records, equal, queries)
	fmt.Printf("bound 2·log₂N = %.1f\n", bound(peers))
	for _, row := range []struct {
		scheme string
		c      cost
	}{{"PIRA", pira}, {"DCF-CAN", flood}} {
		fmt.Printf("%-7s avg delay %5.2f, max delay %2d, avg messages %.1f\n", row.scheme,
			float64(row.c.delay)/queries, row.c.maxDelay, float64(row.c.msgs)/queries)
	}
	// Output:
	// 1000 peers, 2000 records: equal result sets on 100 of 100 queries
	// bound 2·log₂N = 19.9
	// PIRA    avg delay  9.15, max delay 10, avg messages 231.4
	// DCF-CAN avg delay 24.63, max delay 38, avg messages 346.8
}
