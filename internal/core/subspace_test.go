package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"armada/internal/kautz"
)

// TestCarriedSubspaces holds the subspace each MIRA descent message carries
// to the whole walk it replaces: after every pump, each queued message that
// is not a direct send carries, at msg.sub, exactly tree.Subspace of its
// receiver's eventual prefix, bit for bit. It covers two and three
// attributes on one to three replicas, range queries from spread issuers and
// the same past a cursor, walks whose pages go positional and re-locate after
// the owner under the cursor splits, and the flood ablation, which prunes
// nothing and so carries nothing.
func TestCarriedSubspaces(t *testing.T) {
	ctx := context.Background()
	for _, attrs := range []int{2, 3} {
		for replicas := 1; replicas <= 3; replicas++ {
			w := buildGoldenWorld(t, attrs, replicas, 220, 1400, int64(40+10*attrs+replicas))
			eng, net := w.eng, w.eng.Network()
			checked, stale, flood := 0, 0, false
			eng.drained = func(st *queryState) {
				if flood {
					if len(st.subs) != 0 {
						t.Fatalf("m=%d r=%d: a flood carried %d subspace intervals", attrs, replicas, len(st.subs))
					}
					return
				}
				for _, m := range st.queue {
					if m.direct {
						continue
					}
					prefix := net.IDAt(m.to).Drop(int(m.h))
					want, err := w.tree.Subspace(prefix)
					if err != nil {
						t.Fatal(err)
					}
					for a, got := range st.subs[m.sub:][:attrs] {
						if math.Float64bits(got.Low) != math.Float64bits(want[a].Low) || math.Float64bits(got.High) != math.Float64bits(want[a].High) {
							t.Fatalf("m=%d r=%d: message to %s (h=%d) carries %v for attribute %d, Subspace(%q) is %v",
								attrs, replicas, net.IDAt(m.to), m.h, got, a, prefix, want[a])
						}
					}
					checked++
				}
			}
			rng := rand.New(rand.NewSource(int64(attrs*replicas) + 7))
			for q := 0; q < 24; q++ {
				issuers := net.PeerIDs()
				issuer := issuers[rng.Intn(len(issuers))]
				lo, hi := goldenBox(rng, w.tree, 0.08*float64(attrs-1)) // boxes of a few dozen objects
				res, err := eng.RangeQuery(ctx, issuer, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(res.Matches); n > 1 {
					if _, err := eng.RangeQuery(ctx, issuer, lo, hi, WithAfter(kautz.Str(res.Matches[n/2].ID))); err != nil {
						t.Fatal(err)
					}
				}
				var walk Walk
				cfg := QueryConfig{Limit: 4}
				for page := 0; ; page++ {
					res, _, wasStale, err := eng.WalkPage(ctx, &walk, issuer, lo, hi, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if wasStale {
						stale++
					}
					if cfg.After = res.Next; cfg.After == "" {
						break
					}
					if page == 1 { // split the owner under the cursor: the next page finds it stale
						for _, tile := range walk.tiles {
							if tile.ID >= cfg.After || cfg.After.HasPrefix(tile.ID) {
								kept, _, _, err := net.SplitRegion(tile.ID)
								if err != nil {
									t.Fatal(err)
								}
								if tile.ID == issuer {
									issuer = kept
								}
								break
							}
						}
					}
				}
				flood = true
				if _, err := eng.FloodQuery(ctx, issuer, lo, hi); err != nil {
					t.Fatal(err)
				}
				flood = false
			}
			if checked < 500 || stale == 0 {
				t.Fatalf("m=%d r=%d: %d descent messages checked, %d stale walk pages", attrs, replicas, checked, stale)
			}
		}
	}
}
