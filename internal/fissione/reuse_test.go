package fissione_test

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/naming"
)

// TestHeldRecordsSurviveChunkReuse runs range and top-k readers that hold
// their last results against a writer that publishes and unpublishes the
// same objects round after round, so that the record arena releases its
// chunks and hands their numbers to fresh ones many times over. A record a
// reader holds must read the same bytes however often its chunk's number is
// reused, and every fresh result must match the oracle: the stable objects
// exactly, each churned one by what its name encodes. It is meant for
// go test -race -count=10.
func TestHeldRecordsSurviveChunkReuse(t *testing.T) {
	const k, stable, churned, rounds, held = 24, 300, 200, 40, 16
	net, err := fissione.BuildRandom(k, 8, 501)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := naming.NewSingleTree(k, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(net, tree)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(name string, v float64, remove bool) {
		id, err := tree.Hash(v)
		if err == nil && remove {
			_, err = net.UnpublishAt(id, fissione.Object{Name: name, Values: []float64{v}})
		} else if err == nil {
			_, err = net.PublishAt(id, fissione.Object{Name: name, Values: []float64{v}})
		}
		if err != nil {
			t.Error(err)
		}
	}
	// The stable objects lie in [0, 500), the churned ones in [500, 1000).
	var want []core.Match
	for i := range stable {
		v, name := float64(i)*500/stable, fmt.Sprintf("stable-%04d", i)
		publish(name, v, false)
		id, _ := tree.Hash(v)
		want = append(want, core.Match{Name: name, Values: []float64{v}, ID: string(id)})
	}
	slices.SortFunc(want, func(a, b core.Match) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Name, b.Name)) })
	top := slices.Clone(want)
	slices.SortFunc(top, func(a, b core.Match) int { return cmp.Compare(b.Values[0], a.Values[0]) })
	churnValue := func(i int) float64 { return 500 + float64(i)*500/churned }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := range rounds {
			for _, remove := range []bool{false, true} {
				for i := range churned {
					publish(fmt.Sprintf("churned-%04d-round-%03d-padding", i, round), churnValue(i), remove)
				}
			}
		}
	}()
	type heldMatch struct {
		m        core.Match
		id, name string
	}
	reader := func(seed int) {
		defer wg.Done()
		var kept [][]heldMatch
		keep := func(ms []core.Match) {
			h := make([]heldMatch, len(ms))
			for i, m := range ms {
				h[i] = heldMatch{m, strings.Clone(m.ID), strings.Clone(m.Name)}
			}
			if kept = append(kept, h); len(kept) > held {
				kept = kept[1:]
			}
			for _, h := range kept {
				for _, x := range h {
					if x.m.ID != x.id || x.m.Name != x.name {
						t.Errorf("a held match reads %q %q, it was %q %q", x.m.ID, x.m.Name, x.id, x.name)
					}
				}
			}
		}
		for q := seed; ; q++ {
			select {
			case <-done:
				return
			default:
			}
			ctx, issuer := context.Background(), net.PeerIDs()[q%net.Size()]
			res, err := eng.RangeQuery(ctx, issuer, []float64{0}, []float64{499.99})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Matches) != len(want) {
				t.Errorf("range over the stable objects returned %d, want %d", len(res.Matches), len(want))
			}
			for i := range min(len(res.Matches), len(want)) {
				if m, w := res.Matches[i], want[i]; m.ID != w.ID || m.Name != w.Name || !slices.Equal(m.Values, w.Values) {
					t.Errorf("range match %d is %s %s %v, want %s %s %v", i, m.ID, m.Name, m.Values, w.ID, w.Name, w.Values)
				}
			}
			keep(res.Matches)
			if res, err = eng.RangeQuery(ctx, issuer, []float64{500}, []float64{1000}); err != nil {
				t.Error(err)
				return
			}
			for _, m := range res.Matches {
				var i, round int
				_, err := fmt.Sscanf(m.Name, "churned-%04d-round-%03d-padding", &i, &round)
				id, _ := tree.Hash(churnValue(i))
				if err != nil || len(m.Values) != 1 || m.Values[0] != churnValue(i) || m.ID != string(id) {
					t.Errorf("churned match %s %s %v is no object the writer publishes", m.ID, m.Name, m.Values)
				}
			}
			keep(res.Matches)
			kq := 1 + q%20
			tk, err := eng.TopK(ctx, issuer, []float64{0}, []float64{499.99}, kq)
			if err != nil {
				t.Error(err)
				return
			}
			for i, m := range tk.Matches {
				if w := top[i]; m.ID != w.ID || m.Name != w.Name || !slices.Equal(m.Values, w.Values) {
					t.Errorf("top-%d match %d is %s %s %v, want %s %s %v", kq, i, m.ID, m.Name, m.Values, w.ID, w.Name, w.Values)
				}
			}
			if len(tk.Matches) != kq {
				t.Errorf("top-%d returned %d matches", kq, len(tk.Matches))
			}
			keep(tk.Matches)
		}
	}
	for seed := range 2 {
		wg.Add(1)
		go reader(seed)
	}
	wg.Wait()
	// Every round writes its records afresh: about 200 × 46 bytes, two
	// chunks' worth. Without reuse the arena would have numbered 80.
	if n := net.RecordChunks(); n > 20 {
		t.Errorf("the arena numbered %d chunks over %d rounds: released numbers are not reused", n, rounds)
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}
