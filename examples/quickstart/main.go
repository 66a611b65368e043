// Quickstart: build a small Armada network, publish objects by attribute
// value, and run delay-bounded range queries through the unified Do API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"armada"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// A 256-peer FISSIONE network; objects carry one attribute in [0, 100].
	net, err := armada.NewNetwork(256,
		armada.WithSeed(2006),
		armada.WithAttributes(armada.AttributeSpace{Low: 0, High: 100}),
	)
	if err != nil {
		return err
	}

	// Publish exam scores in one batch. Armada's order-preserving naming
	// places close scores on the same or neighboring peers.
	students := []armada.Publication{
		{Name: "alice", Values: []float64{83.5}}, {Name: "bob", Values: []float64{72.0}},
		{Name: "carol", Values: []float64{91.2}}, {Name: "dave", Values: []float64{65.5}},
		{Name: "eve", Values: []float64{78.3}}, {Name: "frank", Values: []float64{70.0}},
		{Name: "grace", Values: []float64{80.0}}, {Name: "heidi", Values: []float64{55.1}},
	}
	if err := net.PublishBatch(students); err != nil {
		return err
	}

	// The paper's motivating query: 70 ≤ score ≤ 80, as one Query value
	// executed through the single Do entry point.
	res, err := net.Do(ctx, armada.NewRange([]armada.Range{{Low: 70, High: 80}}))
	if err != nil {
		return err
	}

	fmt.Println("students with 70 <= score <= 80:")
	for _, o := range res.Objects {
		fmt.Printf("  %-6s score=%.1f  (stored on peer %s)\n", o.Name, o.Values[0], o.Peer)
	}

	logN := math.Log2(float64(net.Size()))
	fmt.Printf("\nquery cost: %d hops (guaranteed < 2*logN = %.1f), %d messages, %d destination peers\n",
		res.Stats.Delay, 2*logN, res.Stats.Messages, res.Stats.DestPeers)

	// The same query, streamed: matches arrive in the same sorted order, a
	// page of the walk at a time, and no lock is held while this loop runs.
	fmt.Println("\nstreaming the same query:")
	for o, err := range net.Stream(ctx, armada.NewRange([]armada.Range{{Low: 70, High: 80}})) {
		if err != nil {
			return err
		}
		fmt.Printf("  delivered %s (%.1f)\n", o.Name, o.Values[0])
	}

	// Exact-match lookup through the same DHT.
	if err := net.PublishExact("syllabus.pdf"); err != nil {
		return err
	}
	lr, err := net.Do(ctx, armada.NewLookup("syllabus.pdf"))
	if err != nil {
		return err
	}
	fmt.Printf("exact-match lookup of %q: owner %s in %d hops\n",
		"syllabus.pdf", lr.Owner, lr.Stats.Delay)
	return nil
}
