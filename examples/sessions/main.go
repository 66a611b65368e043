// Sessions: walk a large range result page by page through a query
// session, which keeps the owners page 1's descent delivered to, in order, so
// every page beyond the first skips the route-to-region descent and addresses
// only the owners it scans — then repeat the walk and watch the network's
// route cache serve even page 1.
//
//	go run ./examples/sessions
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"armada"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// A 400-peer network with the issuer-side route cache: every descent
	// teaches it the owners it delivered to, and later queries whose
	// destinations it knows are seeded directly at them.
	net, err := armada.NewNetwork(400,
		armada.WithSeed(2006),
		armada.WithShortcutTable(256),
	)
	if err != nil {
		return err
	}

	// A dense population, so a hot range spans several pages.
	rng := rand.New(rand.NewSource(42))
	pubs := make([]armada.Publication, 6000)
	for i := range pubs {
		pubs[i] = armada.Publication{
			Name:   fmt.Sprintf("reading-%05d", i),
			Values: []float64{rng.Float64() * 1000},
		}
	}
	if err := net.PublishBatch(pubs); err != nil {
		return err
	}

	// Walk the hot range twice. The first walk descends once (page 1) and
	// serves every later page from its positional cursor over the owners
	// that descent reached; the second walk finds those owners in the route
	// cache and descends not at all.
	ranges := []armada.Range{{Low: 100, High: 400}}
	for walk := 1; walk <= 2; walk++ {
		sess, err := net.OpenSession(armada.NewRange(ranges), armada.WithLimit(512))
		if err != nil {
			return err
		}
		fmt.Printf("walk %d:\n", walk)
		for page := 1; sess.More(); page++ {
			res, err := sess.Next(ctx)
			if err != nil {
				return err
			}
			how := "full descent"
			switch {
			case res.Stats.FrontierHits > 0:
				how = "seeded from the route cache"
			case res.Stats.DescentsSaved > 0:
				how = "positional: one message per owner scanned"
			}
			fmt.Printf("  page %d: %4d objects, %3d messages, delay %d (%s)\n",
				page, len(res.Objects), res.Stats.Messages, res.Stats.Delay, how)
		}
		st := sess.Stats()
		fmt.Printf("  total: %d objects over %d pages, %d messages — %d descents saved, %d cache hits\n",
			st.Objects, st.Pages, st.Messages, st.DescentsSaved, st.FrontierHits)
		sess.Close()
	}

	if cs, ok := net.ShortcutTableStats(); ok {
		fmt.Printf("route cache: %d/%d owners, %d hits / %d misses (%d stale)\n",
			cs.Entries, cs.Capacity, cs.Hits, cs.Misses, cs.Stale)
	}
	return nil
}
