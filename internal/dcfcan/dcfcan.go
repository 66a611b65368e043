// Package dcfcan implements the paper's baseline: Andrzejak & Xu's
// single-attribute range-query scheme with directed controlled flooding
// over CAN ("Scalable, Efficient Range Queries for Grid Information
// Services", IEEE P2P 2002), called DCF-CAN in the Armada paper.
//
// The attribute interval [L,H] is mapped onto CAN's 2-d space with a
// Hilbert space-filling curve: value v lands at the curve point of its
// normalized position, so a range [a,b] becomes a contiguous curve-index
// segment whose zones form a connected set. A query is processed in two
// phases:
//
//  1. Route (CAN greedy routing) from the issuing zone to the zone owning
//     the query's median value.
//  2. Directed controlled flooding: every zone receiving the query forwards
//     it to each neighbor whose zone intersects the query's curve segment,
//     except the zone it came from. Zones process the query once
//     (duplicates are suppressed on arrival but still counted as messages,
//     which is the flood's honest overhead).
//
// The resulting delay grows with both network size (the routing phase costs
// on the order of N^(1/2) hops on a 2-d CAN) and range size (the flood must
// cross the segment's zone set) — the behaviour Figures 5 and 7 contrast
// with PIRA's flat, bounded delay.
package dcfcan

import (
	"errors"
	"fmt"
	"sort"

	"armada/internal/can"
	"armada/internal/hilbert"
)

// Errors returned by the scheme.
var (
	ErrBadSpace = errors.New("dcfcan: attribute space must have Low < High")
	ErrBadRange = errors.New("dcfcan: query low bound above high bound")
)

// Scheme binds a CAN network to an attribute space through a Hilbert curve.
type Scheme struct {
	net   *can.Network
	curve *hilbert.Curve
	low   float64
	high  float64
}

// New creates a scheme over net for attribute values in [low, high], using
// a Hilbert curve of the given order for the value-to-space mapping.
func New(net *can.Network, order uint, low, high float64) (*Scheme, error) {
	if !(low < high) {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadSpace, low, high)
	}
	curve, err := hilbert.New(order)
	if err != nil {
		return nil, err
	}
	return &Scheme{net: net, curve: curve, low: low, high: high}, nil
}

// Network returns the underlying CAN.
func (s *Scheme) Network() *can.Network { return s.net }

// normalize maps a value to curve position t ∈ [0,1].
func (s *Scheme) normalize(v float64) float64 {
	t := (v - s.low) / (s.high - s.low)
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// Publish stores an object with the given attribute value on the zone
// owning its curve point.
func (s *Scheme) Publish(name string, value float64) (zoneID string, err error) {
	x, y := s.curve.ValueToPoint(s.normalize(value))
	zoneID, err = s.net.ZoneAt(x, y)
	if err != nil {
		return "", err
	}
	z, _ := s.net.Zone(zoneID)
	z.AddItem(can.Item{Name: name, Value: value})
	return zoneID, nil
}

// Match is one object satisfying a range query.
type Match struct {
	Name  string
	Value float64
	Zone  string
}

// Stats are the cost metrics of one DCF-CAN query.
type Stats struct {
	// Delay is the total hop count until the last destination zone received
	// the query: routing hops to the median zone plus flood depth.
	Delay int
	// RouteHops is the routing phase's contribution to Delay.
	RouteHops int
	// Messages counts every overlay message: the routing path plus every
	// flood forward (including duplicates suppressed on arrival).
	Messages int
	// DestZones is the number of distinct zones intersecting the query.
	DestZones int
}

// Result is the outcome of a range query.
type Result struct {
	Matches      []Match
	Destinations []string
	Stats        Stats
}

// floodMsg is one flood message: its target zone, the zone that sent it
// ("" for the seed) and its hop depth from the median zone (0 for the seed).
type floodMsg struct {
	to, from string
	depth    int
}

// RangeQuery executes [lo, hi] from the given issuing zone.
func (s *Scheme) RangeQuery(issuer string, lo, hi float64) (*Result, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadRange, lo, hi)
	}
	if _, ok := s.net.Zone(issuer); !ok {
		return nil, fmt.Errorf("dcfcan: issuer %w", can.ErrNoSuchZone)
	}
	iLo := s.curve.ValueToIndex(s.normalize(lo))
	iHi := s.curve.ValueToIndex(s.normalize(hi))

	// Phase 1: route to the zone owning the median value.
	median := s.normalize((lo + hi) / 2)
	mx, my := s.curve.ValueToPoint(median)
	medianZone, routeHops, err := s.net.Route(issuer, mx, my)
	if err != nil {
		return nil, fmt.Errorf("dcfcan: median routing: %w", err)
	}

	// Phase 2: directed controlled flooding across the segment's zones,
	// breadth first. The seed is local computation at the median zone; every
	// forward is one overlay message, one hop deeper than its sender's, and
	// the flood's delay is the deepest message's depth.
	res := &Result{}
	seen := make(map[string]bool)
	var floodDelay, floodMsgs int
	for queue := []floodMsg{{to: medianZone}}; len(queue) > 0; queue = queue[1:] {
		m := queue[0]
		floodDelay = max(floodDelay, m.depth)
		if m.depth >= 1 {
			floodMsgs++
		}
		if seen[m.to] {
			continue // duplicate: suppressed, but its delivery was counted
		}
		seen[m.to] = true
		zone, ok := s.net.Zone(m.to)
		if !ok {
			continue
		}
		res.Destinations = append(res.Destinations, m.to)
		for _, it := range zone.Items() {
			if it.Value >= lo && it.Value <= hi {
				res.Matches = append(res.Matches, Match{Name: it.Name, Value: it.Value, Zone: m.to})
			}
		}
		for _, nbID := range zone.Neighbors() {
			if nbID == m.from {
				continue
			}
			if nb, _ := s.net.Zone(nbID); s.curve.IntersectsSegment(iLo, iHi, nb.Rect()) {
				queue = append(queue, floodMsg{to: nbID, from: m.to, depth: m.depth + 1})
			}
		}
	}

	sort.Strings(res.Destinations)
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].Value != res.Matches[j].Value {
			return res.Matches[i].Value < res.Matches[j].Value
		}
		return res.Matches[i].Name < res.Matches[j].Name
	})
	res.Stats = Stats{
		Delay:     routeHops + floodDelay,
		RouteHops: routeHops,
		Messages:  routeHops + floodMsgs,
		DestZones: len(res.Destinations),
	}
	return res, nil
}

// ZonesIntersecting returns, from the global view, the zones intersecting
// the value range — the ground truth for destination-set tests.
func (s *Scheme) ZonesIntersecting(lo, hi float64) []string {
	iLo := s.curve.ValueToIndex(s.normalize(lo))
	iHi := s.curve.ValueToIndex(s.normalize(hi))
	var out []string
	for _, id := range s.net.ZoneIDs() {
		z, _ := s.net.Zone(id)
		if s.curve.IntersectsSegment(iLo, iHi, z.Rect()) {
			out = append(out, id)
		}
	}
	return out
}
