package dcfcan

import (
	"math"
	"math/rand"
	"testing"

	"armada/internal/can"
)

const testOrder = 9

func buildScheme(t *testing.T, zones int, seed int64) *Scheme {
	t.Helper()
	net, err := can.BuildRandom(zones, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, testOrder, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	net := can.New(1)
	if _, err := New(net, testOrder, 5, 5); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := New(net, 0, 0, 1); err == nil {
		t.Error("bad curve order accepted")
	}
}

func TestPublishPlacesInCorrectZone(t *testing.T) {
	s := buildScheme(t, 64, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		v := rng.Float64() * 1000
		zoneID, err := s.Publish("o", v)
		if err != nil {
			t.Fatal(err)
		}
		z, ok := s.Network().Zone(zoneID)
		if !ok {
			t.Fatalf("zone %q missing", zoneID)
		}
		found := false
		for _, it := range z.Items() {
			if it.Value == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("value %v not stored in %q", v, zoneID)
		}
	}
}

// Completeness against brute force: the flood finds exactly the in-range
// objects.
func TestRangeQueryCompleteness(t *testing.T) {
	s := buildScheme(t, 150, 3)
	rng := rand.New(rand.NewSource(4))
	values := make([]float64, 400)
	for i := range values {
		values[i] = rng.Float64() * 1000
		if _, err := s.Publish(name(i), values[i]); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*(1000-lo)
		res, err := s.RangeQuery(s.Network().RandomZone(rng), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, v := range values {
			if v >= lo && v <= hi {
				want++
			}
		}
		if len(res.Matches) != want {
			t.Fatalf("[%f,%f]: %d matches, want %d", lo, hi, len(res.Matches), want)
		}
		for _, m := range res.Matches {
			if m.Value < lo || m.Value > hi {
				t.Fatalf("out-of-range match %+v", m)
			}
		}
	}
}

// The flood visits exactly the zones intersecting the query segment.
func TestRangeQueryDestinations(t *testing.T) {
	s := buildScheme(t, 120, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*(1000-lo)
		res, err := s.RangeQuery(s.Network().RandomZone(rng), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := s.ZonesIntersecting(lo, hi)
		if len(res.Destinations) != len(want) {
			t.Fatalf("[%f,%f]: visited %d zones, want %d", lo, hi, len(res.Destinations), len(want))
		}
		for i := range want {
			if res.Destinations[i] != want[i] {
				t.Fatalf("destinations %v, want %v", res.Destinations, want)
			}
		}
		if res.Stats.DestZones != len(want) {
			t.Fatalf("DestZones = %d, want %d", res.Stats.DestZones, len(want))
		}
	}
}

func TestRangeQueryValidation(t *testing.T) {
	s := buildScheme(t, 16, 7)
	if _, err := s.RangeQuery(s.Network().ZoneIDs()[0], 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.RangeQuery("nope", 0, 10); err == nil {
		t.Error("unknown issuer accepted")
	}
}

// DCF-CAN delay grows with range size (the contrast to PIRA in Figure 5).
func TestDelayGrowsWithRangeSize(t *testing.T) {
	s := buildScheme(t, 400, 9)
	rng := rand.New(rand.NewSource(10))
	avgDelay := func(width float64) float64 {
		total := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			lo := rng.Float64() * (1000 - width)
			res, err := s.RangeQuery(s.Network().RandomZone(rng), lo, lo+width)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.Delay
		}
		return float64(total) / trials
	}
	small, large := avgDelay(2), avgDelay(300)
	if large <= small {
		t.Errorf("delay did not grow with range size: width 2 -> %.1f, width 300 -> %.1f", small, large)
	}
}

// DCF-CAN delay grows with network size on the order of sqrt(N) (Figure 7's
// contrast).
func TestDelayGrowsWithNetworkSize(t *testing.T) {
	avgDelay := func(zones int) float64 {
		s := buildScheme(t, zones, int64(zones))
		rng := rand.New(rand.NewSource(int64(zones) + 1))
		total := 0
		const trials = 50
		for i := 0; i < trials; i++ {
			lo := rng.Float64() * 980
			res, err := s.RangeQuery(s.Network().RandomZone(rng), lo, lo+20)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.Delay
		}
		return float64(total) / trials
	}
	small, large := avgDelay(100), avgDelay(900)
	if ratio := large / small; ratio < 1.5 {
		t.Errorf("delay scaling 100 -> 900 zones: %.1f -> %.1f (ratio %.2f), want noticeable growth",
			small, large, ratio)
	}
	if large < 0.3*math.Sqrt(900) {
		t.Errorf("delay at 900 zones = %.1f, implausibly small for O(sqrt N)", large)
	}
}

// A point query's segment is one curve cell, owned by the median zone alone:
// the flood is its seed, local at that zone, so the query costs exactly the
// routing phase — no flood hop, no flood message.
func TestPointQueryCost(t *testing.T) {
	s := buildScheme(t, 200, 11)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		v := rng.Float64() * 1000
		res, err := s.RangeQuery(s.Network().RandomZone(rng), v, v)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DestZones != 1 {
			t.Fatalf("point query reached %d zones, want 1", res.Stats.DestZones)
		}
		if res.Stats.Delay != res.Stats.RouteHops || res.Stats.Messages != res.Stats.RouteHops {
			t.Fatalf("delay %d, messages %d, want both the route hops %d",
				res.Stats.Delay, res.Stats.Messages, res.Stats.RouteHops)
		}
	}
}

func name(i int) string {
	return "it-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
}
