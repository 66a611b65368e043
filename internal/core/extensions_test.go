package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"armada/internal/fissione"
	"armada/internal/naming"
)

// Top-k keeps a k-bounded selection while it scans; it must equal
// materialising the whole range, sorting it (first attribute descending,
// then Name) and cutting at k — ties on the first attribute included.
func TestTopKReturnsHighestValues(t *testing.T) {
	eng, objs := buildSingle(t, 120, 500, 201)
	rng := rand.New(rand.NewSource(202))
	// Runs of objects sharing one value, so cuts land inside ties.
	for i := 0; i < 60; i++ {
		o := fissione.Object{Name: fmt.Sprintf("tie-%02d", 59-i), Values: []float64{float64(100 + 90*(i/6))}}
		oid, err := eng.Tree().Hash(o.Values...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Network().PublishAt(oid, o); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for trial := 0; trial < 40; trial++ {
		lo := rng.Float64() * 500
		hi := lo + 100 + rng.Float64()*(1000-lo-100)
		if trial%4 == 3 { // the range tops out on a tie group, so small k cut inside it
			hi = float64(100 + 90*rng.Intn(10))
			lo = max(0, hi-150)
		}
		k := 1 + rng.Intn(10)
		issuer := eng.Network().RandomPeer(rng)
		res, err := eng.TopK(context.Background(), issuer, []float64{lo}, []float64{hi}, k)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: sort in-range values descending, take k.
		var want []float64
		for _, o := range objs {
			if o.Values[0] >= lo && o.Values[0] <= hi {
				want = append(want, o.Values[0])
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > k {
			want = want[:k]
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("top-%d: got %d matches, want %d", k, len(res.Matches), len(want))
		}
		for i, m := range res.Matches {
			if m.Values[0] != want[i] {
				t.Fatalf("top-%d[%d] = %v, want %v", k, i, m.Values[0], want[i])
			}
		}
		// Materialise, sort, cut.
		full, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		sorted := full.Matches
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Values[0] != sorted[j].Values[0] {
				return sorted[i].Values[0] > sorted[j].Values[0]
			}
			return sorted[i].Name < sorted[j].Name
		})
		if !reflect.DeepEqual(res.Matches, sorted[:len(want)]) {
			t.Fatalf("top-%d of [%v, %v] = %v, materialise-sort-cut gives %v", k, lo, hi, res.Matches, sorted[:len(want)])
		}
	}
}

func TestTopKValidation(t *testing.T) {
	eng, _ := buildSingle(t, 16, 0, 203)
	if _, err := eng.TopK(context.Background(), eng.Network().PeerIDs()[0], []float64{0}, []float64{10}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := eng.TopK(context.Background(), "01010101010", []float64{0}, []float64{10}, 3); err == nil {
		t.Error("unknown issuer accepted")
	}
}

func TestTopKDelayBounded(t *testing.T) {
	eng, _ := buildSingle(t, 300, 600, 205)
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 20; trial++ {
		issuer := eng.Network().RandomPeer(rng)
		res, err := eng.TopK(context.Background(), issuer, []float64{0}, []float64{1000}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Delay > len(issuer) {
			t.Fatalf("top-k delay %d exceeds issuer length %d", res.Stats.Delay, len(issuer))
		}
	}
}

// FloodQuery returns the same results as RangeQuery but costs far more
// messages — the pruning ablation.
func TestFloodQueryMatchesRangeQuery(t *testing.T) {
	eng, _ := buildSingle(t, 150, 300, 207)
	rng := rand.New(rand.NewSource(208))
	for trial := 0; trial < 10; trial++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*(1000-lo)
		issuer := eng.Network().RandomPeer(rng)
		pruned, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		flooded, err := eng.FloodQuery(context.Background(), issuer, []float64{lo}, []float64{hi})
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned.Matches) != len(flooded.Matches) {
			t.Fatalf("flood found %d matches, pruned %d", len(flooded.Matches), len(pruned.Matches))
		}
		for i := range pruned.Matches {
			if pruned.Matches[i].Name != flooded.Matches[i].Name {
				t.Fatalf("match %d differs", i)
			}
		}
		if len(pruned.Destinations) != len(flooded.Destinations) {
			t.Fatalf("flood hit %d destinations, pruned %d",
				len(flooded.Destinations), len(pruned.Destinations))
		}
		if flooded.Stats.Messages < pruned.Stats.Messages {
			t.Fatalf("flood cheaper than pruned search: %d < %d",
				flooded.Stats.Messages, pruned.Stats.Messages)
		}
		if flooded.Stats.Delay != pruned.Stats.Delay {
			t.Fatalf("flood delay %d != pruned delay %d (same FRT height expected)",
				flooded.Stats.Delay, pruned.Stats.Delay)
		}
	}
}

// A top-k selection outlives the store lock of every run it scanned, and a
// store's value column shifts under each publish: the selection must hold
// copies of its candidates' rows, not views of the column. Here a publisher
// keeps inserting and removing objects whose ObjectIDs sort below the
// candidates' — on the same peer, so every insert moves the candidates' rows —
// but outside the queried range, so the answer never changes; under the race
// detector a kept view is a reported race, and without it a wrong value.
func TestTopKRacesPublisher(t *testing.T) {
	net, err := fissione.BuildRandom(testK, 3, 211) // peer "2" owns the top third of the values
	if err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewSingleTree(testK, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(o fissione.Object, remove bool) {
		oid, err := tree.Hash(o.Values...)
		if err == nil && remove {
			_, err = net.UnpublishAt(oid, o)
		} else if err == nil {
			_, err = net.PublishAt(oid, o)
		}
		if err != nil {
			t.Error(err)
		}
	}
	rng := rand.New(rand.NewSource(212))
	var want []float64
	for i := 0; i < 400; i++ {
		v := 700 + rng.Float64()*300
		publish(fissione.Object{Name: objName(i), Values: []float64{v}}, false)
		want = append(want, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := fissione.Object{Name: fmt.Sprintf("below-%d", i%64), Values: []float64{670 + float64(i%64%29)}}
			publish(o, i%128 >= 64) // 64 in, the same 64 out
		}
	}()
	for trial := 0; trial < 300; trial++ {
		k := 1 + trial%40
		res, err := eng.TopK(context.Background(), "0", []float64{700}, []float64{1000}, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != k {
			t.Fatalf("top-%d returned %d matches", k, len(res.Matches))
		}
		for i, m := range res.Matches {
			if len(m.Values) != 1 || m.Values[0] != want[i] {
				t.Fatalf("top-%d[%d] = %v (%s), want %v", k, i, m.Values, m.Name, want[i])
			}
		}
	}
	close(stop)
	<-done
}
