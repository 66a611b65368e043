package armada_test

import (
	"context"
	"fmt"
	"log"

	"armada"
)

// A single-attribute network answering the paper's "70 ≤ score ≤ 80" query.
func ExampleNetwork_Do() {
	net, err := armada.NewNetwork(64,
		armada.WithSeed(7),
		armada.WithAttributes(armada.AttributeSpace{Low: 0, High: 100}),
	)
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"alice", "bob", "carol", "dave"}
	scores := []float64{83.5, 72.0, 91.2, 78.3}
	for i, name := range names {
		if err := net.Publish(name, scores[i]); err != nil {
			log.Fatal(err)
		}
	}

	res, err := net.Do(context.Background(), armada.NewRange(
		[]armada.Range{{Low: 70, High: 80}}, armada.WithIssuer(net.PeerIDs()[0])))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Objects {
		fmt.Println(o.Name, o.Values[0])
	}
	// Output:
	// bob 72
	// dave 78.3
}

// A two-attribute network answering the paper's grid-resource query with
// MIRA.
func ExampleNetwork_Do_multiAttribute() {
	net, err := armada.NewNetwork(64,
		armada.WithSeed(9),
		armada.WithAttributes(
			armada.AttributeSpace{Low: 0, High: 16},  // memory GB
			armada.AttributeSpace{Low: 0, High: 500}, // disk GB
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	hosts := []struct {
		name      string
		mem, disk float64
	}{
		{"h1", 1, 40}, {"h2", 2, 100}, {"h3", 4, 200}, {"h4", 8, 400},
	}
	for _, h := range hosts {
		if err := net.Publish(h.name, h.mem, h.disk); err != nil {
			log.Fatal(err)
		}
	}

	// 1GB ≤ memory ≤ 4GB and 50GB ≤ disk ≤ 200GB.
	res, err := net.Do(context.Background(), armada.NewRange([]armada.Range{
		{Low: 1, High: 4},
		{Low: 50, High: 200},
	}))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range res.Objects {
		fmt.Println(o.Name)
	}
	// Output:
	// h2
	// h3
}

// Exact-match lookup through the same DHT.
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
	fmt.Println(res.Objects[0].Name)
	// Output:
	// report.pdf
}
