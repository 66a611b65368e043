package core

import (
	"cmp"
	"math"
	"slices"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// summary closes the locate phase: it orders the located runs by the
// ObjectIDs they cover — their owners, in that order, are the query's distinct
// destinations, ascending — and returns the query's cost metrics.
func (st *queryState) summary(subregions int) Stats {
	sortRuns(st.runs)
	dests := 0
	for i := range st.runs {
		if st.firstOf(i) {
			dests++
		}
	}
	// A delivery redirected mid-descent is one extra overlay message
	// (owner → serving replica), and that destination's data arrives one
	// hop after the owner received the query. Seeded deliveries address the
	// serving replica directly and add neither.
	return Stats{
		Delay:         max(st.delay, st.redirectDepth),
		Messages:      st.messages + st.redirectMsgs,
		DestPeers:     dests,
		Subregions:    subregions,
		Deliveries:    len(st.runs),
		ReplicaServed: st.replicaServed,
	}
}

// firstOf reports whether ordered run i is the first delivered to its owner.
func (st *queryState) firstOf(i int) bool {
	return i == 0 || st.runs[i].owner != st.runs[i-1].owner
}

// owners lists the distinct owners the ordered runs were delivered to,
// ascending — what a descent teaches its Router — in a buffer the next query
// reuses.
func (st *queryState) owners() []Tile {
	st.tiles = st.tiles[:0]
	for i := range st.runs {
		if r := &st.runs[i]; st.firstOf(i) {
			st.tiles = append(st.tiles, Tile{Slot: r.slot, ID: r.owner.ID()})
		}
	}
	return st.tiles
}

// result assembles the final RangeResult: the locate phase's summary, then
// the ordered runs materialised into it.
func (st *queryState) result(subregions int) *RangeResult {
	res := &RangeResult{Stats: st.summary(subregions)}
	if n := res.Stats.DestPeers; n > 0 {
		res.Destinations = make([]kautz.Str, 0, n)
		for i := range st.runs {
			if st.firstOf(i) {
				res.Destinations = append(res.Destinations, st.runs[i].owner.ID())
			}
		}
	}
	st.materialise(res)
	return res
}

// own is the prefix that bounds a run's scan: the owner's identifier on a
// replicated network, where the serving store also holds its neighbors'
// copies, and nothing otherwise — an unreplicated owner stores no ObjectID
// outside its own region, so the delivered region is scanned as it came.
func (st *queryState) own(r *located) kautz.Str {
	if st.clip {
		return r.owner.ID()
	}
	return ""
}

// sortRuns orders located runs by the ObjectIDs they cover. Distinct owners
// hold prefix-free identifiers, so comparing those orders their regions;
// one owner's deliveries cover disjoint subregions, ordered by their low
// ends.
func sortRuns(runs []located) {
	slices.SortFunc(runs, func(a, b located) int {
		if a.owner != b.owner {
			return cmp.Compare(a.owner.ID(), b.owner.ID())
		}
		return cmp.Compare(a.scan.Low, b.scan.Low)
	})
}

// admits applies the delivery filter — the query box, when there is one —
// to an object the scan region and the cursor let through. Scan callbacks
// start with it; they run under the serving peer's store read lock.
func (st *queryState) admits(so *fissione.StoredObject) bool {
	if !st.hasBox {
		return true
	}
	v := so.Object.Values
	return len(v) == len(st.box.Lo) && st.box.Contains(v)
}

// scanned reports one run's completed scan to the query's observer.
func (st *queryState) scanned(r *located) {
	if st.cfg.Trace != nil {
		st.cfg.Trace(HopScan, r.owner.ID(), r.serving.ID(), int(r.depth), 0)
	}
}

// appendMatch copies one stored object into a result — the one place a
// result object is built. Values go into vals, the backing array every
// match of the result shares; when it is full a new chunk sized to out's
// spare capacity replaces it, and the matches already built keep the old.
func appendMatch(out []Match, vals []float64, so *fissione.StoredObject, serving *fissione.Peer) ([]Match, []float64) {
	v := so.Object.Values
	if len(v) > 0 {
		if cap(vals)-len(vals) < len(v) {
			vals = make([]float64, 0, len(v)*max(cap(out)-len(out), 1))
		}
		off := len(vals)
		vals = append(vals, v...)
		v = vals[off:len(vals):len(vals)]
	}
	return append(out, Match{Name: so.Object.Name, Values: v, ID: string(so.ObjectID), Peer: string(serving.ID())}), vals
}

// capacityHint counts what materialise is about to copy, so the result is
// allocated once: by position in each run's sorted store where the region
// decides admission, by a counting pass under the box where the box admits
// only a fraction of the region (MIRA). Publishes run concurrently with
// queries, so it sizes the slice and bounds nothing: the scan may append
// past it.
func (st *queryState) capacityHint() int {
	need := math.MaxInt
	if st.cfg.Limit > 0 {
		need = st.cfg.Limit + 1 // one slot of tie headroom
	}
	n := 0
	for i := range st.runs {
		if r := &st.runs[i]; st.boxPrune {
			r.serving.ScanOwned(st.own(r), r.scan, st.cfg.After, func(so fissione.StoredObject) bool {
				if st.admits(&so) {
					n++
				}
				return n < need
			})
		} else {
			n += r.serving.CountOwned(st.own(r), r.scan, st.cfg.After)
		}
		if n >= need {
			return need
		}
	}
	return n
}

// materialise is a query's second phase: it scans the located runs, which
// summary ordered by ObjectID, straight into the slice the caller receives, values copied
// at the same moment, so the result is built exactly once. With a Limit it
// stops at the page cut — extended through a run of equal ObjectIDs, which
// never crosses a run boundary (every ObjectID lives in exactly one run),
// so the strictly-greater Next cursor neither skips nor repeats an object —
// and reads on only until the first further match proves there is a next
// page.
func (st *queryState) materialise(res *RangeResult) {
	var (
		out     []Match
		vals    []float64
		serving *fissione.Peer
		more    bool // a match exists beyond the page
	)
	if n := st.capacityHint(); n > 0 {
		out = make([]Match, 0, n)
	}
	limit := st.cfg.Limit
	add := func(so fissione.StoredObject) bool {
		if !st.admits(&so) {
			return true
		}
		if limit > 0 && len(out) >= limit && string(so.ObjectID) != out[len(out)-1].ID {
			more = true
			return false
		}
		out, vals = appendMatch(out, vals, &so, serving)
		return true
	}
	scanned := st.runs
	for i := range scanned {
		r := &scanned[i]
		start := len(out)
		serving = r.serving
		serving.ScanOwned(st.own(r), r.scan, st.cfg.After, add)
		r.end = int32(len(out))
		st.scanned(r)
		if st.cfg.OnMatch != nil {
			for _, m := range out[start:] { // outside the store lock
				st.cfg.OnMatch(m)
			}
		}
		if more {
			scanned = scanned[:i+1]
			break
		}
	}
	if len(out) == 0 {
		return
	}
	res.Matches = out
	res.Runs = make([][]Match, 0, len(scanned))
	start := 0
	for _, r := range scanned {
		if end := int(r.end); end > start {
			res.Runs = append(res.Runs, out[start:end:end])
			start = end
		}
	}
	if more {
		res.Next = kautz.Str(out[len(out)-1].ID)
	}
}
