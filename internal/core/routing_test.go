package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// Section 3 of the paper: FISSIONE's average routing delay is below log₂N
// and its diameter below 2·log₂N. Exact-match routing here is the
// degenerate PIRA descent, so this also pins the engine's base cost.
func TestRoutingDelay(t *testing.T) {
	for _, size := range []int{200, 1000, 4000} {
		net, err := fissione.BuildRandom(testK, size, int64(size)+211)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(size) + 212))
		logN := math.Log2(float64(size))
		total := 0.0
		const trials = 300
		for i := 0; i < trials; i++ {
			oid := kautz.Random(rng, testK)
			res, err := eng.Lookup(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), oid)
			if err != nil {
				t.Fatal(err)
			}
			if float64(res.Stats.Delay) >= 2*logN {
				t.Fatalf("N=%d: routing delay %d ≥ 2logN %.1f", size, res.Stats.Delay, 2*logN)
			}
			total += float64(res.Stats.Delay)
		}
		if avg := total / trials; avg >= logN {
			t.Errorf("N=%d: average routing delay %.2f ≥ logN %.2f", size, avg, logN)
		}
	}
}

// Routing from every peer to a fixed object always lands on the same owner.
func TestRoutingConverges(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 80, 221)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	oid := kautz.Hash("convergence-probe", testK)
	want, err := net.OwnerOf(oid)
	if err != nil {
		t.Fatal(err)
	}
	for _, issuer := range net.PeerIDs() {
		res, err := eng.Lookup(context.Background(), issuer, oid)
		if err != nil {
			t.Fatalf("lookup from %q: %v", issuer, err)
		}
		if res.Owner != want {
			t.Fatalf("lookup from %q reached %q, want %q", issuer, res.Owner, want)
		}
	}
}

// The delay of a query equals b − f per subregion: issuing a query whose
// targets share a long suffix of the issuer's identifier must be cheaper
// than from an unrelated issuer.
func TestOverlapShortensRoutes(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 500, 231)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(232))
	better, worse := 0, 0
	for i := 0; i < 200; i++ {
		issuer := net.PeerIDAt(rng.Intn(net.Size()))
		// Object whose ID extends the issuer's own identifier: f is maximal,
		// so the route length is at most |issuer| − f = 0 extra shifts plus
		// the appended part.
		aligned := kautz.MaxExtend(issuer, testK)
		resAligned, err := eng.Lookup(context.Background(), issuer, aligned)
		if err != nil {
			t.Fatal(err)
		}
		random := kautz.Random(rng, testK)
		resRandom, err := eng.Lookup(context.Background(), issuer, random)
		if err != nil {
			t.Fatal(err)
		}
		if resAligned.Stats.Delay == 0 {
			better++
		}
		if resRandom.Stats.Delay >= resAligned.Stats.Delay {
			worse++
		}
	}
	if better != 200 {
		t.Errorf("aligned lookups free in %d/200 cases (f = b must zero the route)", better)
	}
	if worse < 190 {
		t.Errorf("random lookups at least as long as aligned in only %d/200 cases", worse)
	}
}
