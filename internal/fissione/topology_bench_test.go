package fissione

import (
	"fmt"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// The topology layer's own micro-benchmarks (make micro): the owner lookup
// every publish starts with — on the preorder layout a build leaves and on
// the one 10,000 churn events leave, so layout drift is a number — the name →
// slot door every query's issuer comes through, one table derivation, a whole
// build, one join plus one leave — the writer cost the slot free list, the
// order edit and the table rewrites add up to — and the positional
// replica-group lookup every replicated delivery makes.

func buildBench10k(b *testing.B) (*Network, *rand.Rand) {
	b.Helper()
	n, err := BuildRandom(32, 10000, 7)
	if err != nil {
		b.Fatal(err)
	}
	return n, rand.New(rand.NewSource(8))
}

var sinkOwner kautz.Str

func benchOwnerOf(b *testing.B, n *Network, rng *rand.Rand) {
	oids := make([]kautz.Str, 4096)
	for i := range oids {
		oids[i] = kautz.Random(rng, n.K())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner, err := n.OwnerOf(oids[i%len(oids)])
		if err != nil {
			b.Fatal(err)
		}
		sinkOwner = owner
	}
}

func BenchmarkOwnerOf10k(b *testing.B) {
	n, rng := buildBench10k(b)
	benchOwnerOf(b, n, rng)
}

func BenchmarkOwnerOfChurned10k(b *testing.B) {
	n, rng := buildBench10k(b)
	for i := 0; i < 5000; i++ {
		if _, err := n.Join(); err != nil {
			b.Fatal(err)
		}
		if err := n.Leave(n.RandomPeer(rng)); err != nil {
			b.Fatal(err)
		}
	}
	benchOwnerOf(b, n, rng)
}

var sinkSlot int32

func BenchmarkSlotOf10k(b *testing.B) {
	n, _ := buildBench10k(b)
	ids := n.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, ok := n.Slot(ids[i*7919%len(ids)])
		if !ok {
			b.Fatal("a live identifier has no slot")
		}
		sinkSlot += s
	}
}

func BenchmarkRefreshTables10k(b *testing.B) {
	n, _ := buildBench10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.refreshTables(n.order[i*7919%len(n.order)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildRandom10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRandom(32, 10000, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinLeave10k(b *testing.B) {
	n, rng := buildBench10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Join(); err != nil {
			b.Fatal(err)
		}
		if err := n.Leave(n.RandomPeer(rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := len(n.nodes); got > 10001 {
		b.Fatalf("%d slots for at most 10,001 live peers: released slots are not reused", got)
	}
}

var sinkGroup int

func BenchmarkGroupPeers(b *testing.B) {
	for _, r := range []int{2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			n, rng := buildBench10k(b)
			if err := n.SetReplicas(r); err != nil {
				b.Fatal(err)
			}
			owners := make([]int32, 4096)
			for i := range owners {
				owners[i] = n.order[rng.Intn(len(n.order))]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf [16]*Peer
				sinkGroup += len(n.AppendGroupPeers(buf[:0], owners[i%len(owners)]))
			}
		})
	}
}
