package armada

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRangeExactAtRoundedBoundaries holds a range query to its one object
// where the partition's arithmetic rounds: a value one ulp under a third of
// [0, 10] (10/3 and 20/3 rounded down) or at the rounded third of
// [−3.7, 91.3], queried by the boxes [Low, v], [v, High] and [v, v] — with a
// second attribute spanning its whole space [0, 10] or not at all, on 3, 16
// and 200 peers, cold and through a warmed route cache. A pruning that
// decides a node's side of such a boundary apart from the hash, as float
// subspaces did, drops the object: 17 of the 27 two-attribute queries here,
// 18 warmed.
func TestRangeExactAtRoundedBoundaries(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		space AttributeSpace
		v     float64
	}{
		{AttributeSpace{Low: 0, High: 10}, 3.333333333333333},
		{AttributeSpace{Low: 0, High: 10}, 6.666666666666666},
		{AttributeSpace{Low: -3.7, High: 91.3}, 59.633333333333326},
	}
	for _, m := range []int{1, 2} {
		for _, warmed := range []bool{false, true} {
			misses := 0
			for _, peers := range []int{3, 16, 200} {
				for _, c := range cases {
					spaces := []AttributeSpace{c.space, {Low: 0, High: 10}}[:m]
					opts := []Option{WithSeed(27), WithAttributes(spaces...)}
					if warmed {
						opts = append(opts, WithShortcutTable(4096))
					}
					net, err := NewNetwork(peers, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if err := net.Publish("edge", []float64{c.v, 5}[:m]...); err != nil {
						t.Fatal(err)
					}
					whole := []Range{{Low: c.space.Low, High: c.space.High}, {Low: 0, High: 10}}[:m]
					if warmed { // every owner learned, so each query below is seeded
						if _, err := net.Do(ctx, NewRange(whole)); err != nil {
							t.Fatal(err)
						}
					}
					for _, box := range [][2]float64{{c.space.Low, c.v}, {c.v, c.space.High}, {c.v, c.v}} {
						ranges := append([]Range{{Low: box[0], High: box[1]}}, whole[1:]...)
						res, err := net.Do(ctx, NewRange(ranges))
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Objects) != 1 || res.Objects[0].Name != "edge" {
							misses++
							t.Errorf("m=%d warmed=%v N=%d: object at %v, box %v: got %d objects (seeded %d), want it alone",
								m, warmed, peers, c.v, ranges, len(res.Objects), res.Stats.DescentsSaved)
						}
					}
					net.Close()
				}
			}
			if misses > 0 {
				t.Errorf("m=%d warmed=%v: %d of 27 boundary queries missed their object", m, warmed, misses)
			}
		}
	}
}

// exactSpaces are the attribute spaces FuzzRangeExact draws from: the
// rounded-third repros, the bench's, one straddling zero, a subnormal one, one
// a few ulps wide and the widest a tree accepts.
var exactSpaces = []AttributeSpace{
	{Low: 0, High: 10}, {Low: -3.7, High: 91.3}, {Low: 0, High: 1000}, {Low: 0, High: 100},
	{Low: -1, High: 1}, {Low: -1e-310, High: 2e-310}, {Low: 1, High: 1 + 0x1p-50}, {Low: -2.9e307, High: 2.9e307},
}

// edgeValues lists the values of s where the partition's arithmetic rounds:
// its ends, ±0 and the smallest subnormals where they lie inside, the rounded
// thirds, random leaf boundaries at random depths (as a fraction of the width
// and as repeated midpoints), and extra — each of those with the values up to
// four ulps either side.
func edgeValues(s AttributeSpace, rng *rand.Rand, extra []float64) []float64 {
	w := s.High - s.Low
	base := []float64{s.Low, s.High, 0, math.Copysign(0, -1), 5e-324, -5e-324, s.Low + w/3, s.Low + 2*(w/3), s.High - w/3}
	for range 6 {
		j := 1 + rng.Intn(40)
		base = append(base, s.Low+w/3/math.Ldexp(1, j)*float64(rng.Intn(3<<j)))
		lo, hi := s.Low, s.High
		for range j {
			if mid := lo + (hi-lo)*0.5; rng.Intn(2) == 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		base = append(base, lo)
	}
	var out []float64
	for _, b := range append(base, extra...) {
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			v := b
			for range 5 {
				if v >= s.Low && v <= s.High {
					out = append(out, v)
				}
				v = math.Nextafter(v, dir)
			}
		}
	}
	return out
}

// FuzzRangeExact holds every way a range result is read — Do, Stream and a
// Session's pages — to a flat oracle, the box tested against every published
// object (bruteRange), object for object in order, at the float edges of the partition: objects and box corners at
// rounded thirds, leaf boundaries ± 4 ulps, subnormals, ±0 and the space
// ends, with corners equal to object values. It covers one to three
// attributes over the spaces above, on 3, 16 and 64 peers, with no route
// cache and with a warmed one, which seeds every query it can.
func FuzzRangeExact(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint64(1), 3.333333333333333, 5.0, 5.0)
	f.Add(uint8(1), uint8(0), uint8(1), uint64(2), 6.666666666666666, 5.0, 5.0)
	f.Add(uint8(1), uint8(1), uint8(2), uint64(3), 59.633333333333326, 0.0, 0.0)
	f.Add(uint8(0), uint8(1), uint8(2), uint64(4), 59.633333333333326, 0.0, 0.0)
	f.Add(uint8(2), uint8(4), uint8(1), uint64(5), 0.0, -1e-310, 1.0)
	f.Add(uint8(2), uint8(5), uint8(0), uint64(6), 1e-310, 1+0x1p-52, 0.0)
	f.Add(uint8(1), uint8(6), uint8(2), uint64(7), 1+0x1p-51, 1e307, 0.0)
	f.Fuzz(func(t *testing.T, mRaw, first, peersRaw uint8, pick uint64, x0, x1, x2 float64) {
		m := 1 + int(mRaw)%3
		peers := []int{3, 16, 64}[peersRaw%3]
		rng := rand.New(rand.NewSource(int64(pick)))
		spaces := make([]AttributeSpace, m)
		edges := make([][]float64, m)
		for a := range spaces {
			spaces[a] = exactSpaces[(int(first)+a)%len(exactSpaces)]
			edges[a] = edgeValues(spaces[a], rng, []float64{x0, x1, x2})
		}
		vals := make([][]float64, 24)
		for i := range vals {
			vals[i] = make([]float64, m)
			for a := range m {
				vals[i][a] = edges[a][rng.Intn(len(edges[a]))]
			}
		}
		var boxes [][2][]float64
		for range 6 {
			v := vals[rng.Intn(len(vals))]
			lo, hi := make([]float64, m), make([]float64, m)
			for a, s := range spaces {
				u := vals[rng.Intn(len(vals))][a]
				r := [][2]float64{{s.Low, v[a]}, {v[a], s.High}, {v[a], v[a]}, {min(v[a], u), max(v[a], u)}, {s.Low, s.High}}[rng.Intn(5)]
				lo[a], hi[a] = r[0], r[1]
			}
			boxes = append(boxes, [2][]float64{lo, hi})
		}
		ctx := context.Background()
		for _, cached := range []bool{false, true} {
			opts := []Option{WithSeed(int64(pick % 1000)), WithAttributes(spaces...)}
			if cached {
				opts = append(opts, WithShortcutTable(4096))
			}
			net, err := NewNetwork(peers, opts...)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]admissionCase, len(vals))
			for i, v := range vals {
				all[i] = admissionCase{name: fmt.Sprintf("o%02d", i), vals: v}
				if err := net.Publish(all[i].name, v...); err != nil {
					t.Fatal(err)
				}
				id, _ := net.tree.Hash(v...)
				all[i].id = string(id)
			}
			if cached {
				whole := make([]Range, m)
				for a, s := range spaces {
					whole[a] = Range{Low: s.Low, High: s.High}
				}
				if _, err := net.Do(ctx, NewRange(whole)); err != nil {
					t.Fatal(err)
				}
			}
			for _, box := range boxes {
				want := bruteRange(all, box[0], box[1])
				ranges := make([]Range, m)
				for a := range ranges {
					ranges[a] = Range{Low: box[0][a], High: box[1][a]}
				}
				what := fmt.Sprintf("m=%d peers=%d cached=%v spaces %v box %v", m, peers, cached, spaces, ranges)
				res, err := net.Do(ctx, NewRange(ranges))
				if err != nil {
					t.Fatal(err)
				}
				sameObjects(t, what+": Do", res.Objects, want)
				var streamed []Object
				for o, err := range net.Stream(ctx, NewRange(ranges)) {
					if err != nil {
						t.Fatal(err)
					}
					streamed = append(streamed, o)
				}
				sameObjects(t, what+": Stream", streamed, want)
				sess, err := net.OpenSession(NewRange(ranges), WithLimit(3))
				if err != nil {
					t.Fatal(err)
				}
				paged, _ := sessionWalk(t, sess)
				sameObjects(t, what+": Session", paged, want)
			}
			net.Close()
		}
	})
}
