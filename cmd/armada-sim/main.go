// Command armada-sim builds an Armada/FISSIONE network, publishes a
// synthetic workload, and walks through one range query — printing the
// topology, the query's cost metrics and the per-peer results. It is the
// quickest way to see the delay-bounded search at work.
//
// Usage:
//
//	armada-sim -peers 2000 -objects 5000 -lo 70 -hi 80
//	armada-sim -peers 500 -multi -lo 1 -hi 4 -lo2 50 -hi2 200
//	armada-sim -peers 1000 -churn 200
//	armada-sim -peers 1000 -stream
//
// Queries run through the unified Do/Stream API; Ctrl-C cancels an
// in-flight query through its context.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"

	"armada"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "armada-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("armada-sim", flag.ContinueOnError)
	var (
		peers   = fs.Int("peers", 1000, "network size")
		objects = fs.Int("objects", 2000, "objects to publish")
		seed    = fs.Int64("seed", 7, "random seed")
		lo      = fs.Float64("lo", 70, "query low bound (attribute 0)")
		hi      = fs.Float64("hi", 80, "query high bound (attribute 0)")
		multi   = fs.Bool("multi", false, "use two attributes (MIRA)")
		lo2     = fs.Float64("lo2", 50, "query low bound (attribute 1, with -multi)")
		hi2     = fs.Float64("hi2", 200, "query high bound (attribute 1, with -multi)")
		churn   = fs.Int("churn", 0, "random joins/leaves to apply before querying")
		topk    = fs.Int("topk", 0, "also run a top-k query for the given k")
		stream  = fs.Bool("stream", false, "print matches as Stream yields them, a page of the walk at a time")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []armada.Option{armada.WithSeed(*seed)}
	spaces := []armada.AttributeSpace{{Low: 0, High: 1000}}
	if *multi {
		spaces = []armada.AttributeSpace{{Low: 0, High: 16}, {Low: 0, High: 500}}
	}
	opts = append(opts, armada.WithAttributes(spaces...))

	fmt.Printf("building FISSIONE network: %d peers...\n", *peers)
	net, err := armada.NewNetwork(*peers, opts...)
	if err != nil {
		return err
	}
	topo := net.Topology()
	logN := math.Log2(float64(topo.Peers))
	fmt.Printf("topology: peers=%d avg-degree=%.2f id-length min/avg/max = %d/%.2f/%d (logN=%.2f, 2logN=%.2f)\n",
		topo.Peers, topo.AvgDegree, topo.MinIDLength, topo.AvgIDLength, topo.MaxIDLength, logN, 2*logN)

	rng := rand.New(rand.NewSource(*seed + 100))
	fmt.Printf("publishing %d objects...\n", *objects)
	pubs := make([]armada.Publication, *objects)
	for i := range pubs {
		vals := make([]float64, len(spaces))
		for j, s := range spaces {
			vals[j] = s.Low + rng.Float64()*(s.High-s.Low)
		}
		pubs[i] = armada.Publication{Name: fmt.Sprintf("obj-%05d", i), Values: vals}
	}
	if err := net.PublishBatch(pubs); err != nil {
		return err
	}

	if *churn > 0 {
		fmt.Printf("applying %d churn events...\n", *churn)
		for i := 0; i < *churn; i++ {
			if rng.Intn(2) == 0 {
				if _, err := net.Join(); err != nil {
					return err
				}
			} else {
				ids := net.PeerIDs()
				if err := net.Leave(ids[rng.Intn(len(ids))]); err != nil {
					return err
				}
			}
		}
		if err := net.Audit(); err != nil {
			return fmt.Errorf("post-churn audit: %w", err)
		}
		fmt.Printf("post-churn: %d peers, all invariants hold\n", net.Size())
	}

	ranges := []armada.Range{{Low: *lo, High: *hi}}
	if *multi {
		ranges = append(ranges, armada.Range{Low: *lo2, High: *hi2})
	}
	issuer := net.RandomPeer()
	fmt.Printf("\nrange query %v issued by peer %s\n", ranges, issuer)

	if *stream {
		// Stream the query once, deriving the cost metrics from its own
		// trace: a forward at depth d is processed at d+1, so the delay is
		// the deepest forward plus one. A stream past its first page runs
		// more queries, each traced: messages and deliveries then sum over
		// the pages and the delay is the slowest page's.
		var forwards, deliveries, delay int
		q := armada.NewRange(ranges, armada.WithIssuer(issuer),
			armada.WithTrace(func(h armada.Hop) {
				if h.From == h.To && h.Remaining == 0 {
					deliveries++
					return
				}
				forwards++
				if h.Depth+1 > delay {
					delay = h.Depth + 1
				}
			}))
		fmt.Println("  streaming matches:")
		n := 0
		for o, err := range net.Stream(ctx, q) {
			if err != nil {
				return err
			}
			n++
			if n <= 10 {
				fmt.Printf("    %-12s values=%v on peer %s\n", o.Name, o.Values, o.Peer)
			}
		}
		if n > 10 {
			fmt.Printf("    ... and %d more\n", n-10)
		}
		fmt.Printf("  matches    = %d objects streamed\n", n)
		fmt.Printf("  delay      = %d hops (bound 2logN = %.1f)\n", delay, 2*logN)
		fmt.Printf("  messages   = %d, %d deliveries over the stream's pages\n", forwards, deliveries)
	} else {
		res, err := net.Do(ctx, armada.NewRange(ranges, armada.WithIssuer(issuer)))
		if err != nil {
			return err
		}
		fmt.Printf("  delay      = %d hops (bound 2logN = %.1f)\n", res.Stats.Delay, 2*logN)
		fmt.Printf("  messages   = %d\n", res.Stats.Messages)
		fmt.Printf("  destpeers  = %d across %d subregion(s)\n", res.Stats.DestPeers, res.Stats.Subregions)
		fmt.Printf("  mesgratio  = %.2f, increratio = %.2f\n",
			res.Stats.MesgRatio(), res.Stats.IncreRatio(net.Size()))
		fmt.Printf("  matches    = %d objects\n", len(res.Objects))
		for i, o := range res.Objects {
			if i == 10 {
				fmt.Printf("    ... and %d more\n", len(res.Objects)-10)
				break
			}
			fmt.Printf("    %-12s values=%v on peer %s\n", o.Name, o.Values, o.Peer)
		}
	}

	if *topk > 0 {
		tres, err := net.Do(ctx, armada.NewRange(ranges, armada.WithTopK(*topk)))
		if err != nil {
			return err
		}
		fmt.Printf("\ntop-%d by attribute 0 (delay %d hops, %d messages):\n",
			*topk, tres.Stats.Delay, tres.Stats.Messages)
		for _, o := range tres.Objects {
			fmt.Printf("    %-12s values=%v\n", o.Name, o.Values)
		}
	}
	return nil
}
