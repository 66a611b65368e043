package core

import (
	"cmp"
	"math"
	"slices"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// close ends a query's messaging: it orders the located runs by the
// ObjectIDs they cover, lists their distinct owners in that order — the
// query's destinations, ascending, and what a descent teaches its Router — in
// a buffer the next query reuses, and folds the query's cost metrics, which it
// returns, into the engine's counters.
func (e *Engine) close(st *queryState, subregions int) Stats {
	sortRuns(st.runs)
	st.tiles = st.tiles[:0]
	for i := range st.runs {
		if r := &st.runs[i]; i == 0 || r.owner != st.runs[i-1].owner {
			st.tiles = append(st.tiles, Tile{Slot: r.owner, ID: e.net.IDAt(r.owner)})
		}
	}
	// A delivery redirected mid-descent is one extra overlay message
	// (owner → serving replica), and that destination's data arrives one
	// hop after the owner received the query. Direct deliveries address the
	// serving replica themselves and add neither.
	stats := Stats{
		Delay:         max(st.delay, st.redirectDepth),
		Messages:      st.messages + st.redirectMsgs,
		DestPeers:     len(st.tiles),
		Subregions:    subregions,
		Deliveries:    len(st.runs),
		ReplicaServed: st.replicaServed,
	}
	if st.seeded {
		stats.DescentsSaved = 1
	}
	e.metrics.note(stats, st.seeded)
	return stats
}

// destinations copies the distinct owners' identifiers out for the caller.
func (st *queryState) destinations() []kautz.Str {
	if len(st.tiles) == 0 {
		return nil
	}
	out := make([]kautz.Str, len(st.tiles))
	for i, t := range st.tiles {
		out[i] = t.ID
	}
	return out
}

// sortRuns orders located runs by the ObjectIDs they cover. Distinct owners
// hold prefix-free identifiers, so their trie positions order their regions;
// one owner's deliveries — a walk's, before and after it re-located — cover
// disjoint spans, ordered by their low ends.
func sortRuns(runs []located) {
	slices.SortFunc(runs, func(a, b located) int {
		if a.pos != b.pos {
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(a.span.Lo, b.span.Lo)
	})
}

// admits applies the delivery filter — the query box, when there is one —
// to an object the scanned span let through: its ObjectID's rank key and its
// values, read in place under the serving peer's store read lock. A row of
// another arity (a value-less exact-match object) is refused first. Under
// PIRA an object whose key lies strictly between the corners is inside the
// box by order preservation, so only the two corner leaves pay the float
// test; every MIRA object pays it, for the region over-covers the box.
func (st *queryState) admits(key uint64, row []float64) bool {
	return !st.hasBox || len(row) == len(st.box.Lo) &&
		(!st.boxPrune && st.corners.Lo < key && key < st.corners.Hi || st.box.Contains(row))
}

// admitsAll reports whether the delivery filter admits a run whole but for
// its value-less objects, which a box refuses by arity: there is no box
// (every lookup), or the box is PIRA's, as wide as the run's rows, and its
// corners lie strictly outside the run's keys.
func (st *queryState) admitsAll(run fissione.Run) bool {
	n := len(run.Idx)
	return !st.hasBox || !st.boxPrune && n > 0 && run.Stride == len(st.box.Lo) &&
		st.corners.Lo < run.Idx[0].Key && run.Idx[n-1].Key < st.corners.Hi
}

// scanned reports one run's completed scan to the query's observer.
func (st *queryState) scanned(r *located) {
	if st.cfg.Trace != nil {
		st.cfg.Trace(HopScan, st.net.IDAt(r.owner), st.net.IDAt(r.serving), int(r.depth), 0)
	}
}

// writeMatch copies one stored object into m, a result's next element — the
// one place a result object is built. ID and Name are its record cut at k,
// shared, not copied. Values go into vals, the array every match of the
// result shares; when it is full a new chunk for the spare elements, m's
// included, replaces it, and matches built keep the old.
func writeMatch(m *Match, vals []float64, spare int, rec string, k int, row []float64, peer string) []float64 {
	var v []float64
	if len(row) > 0 {
		if cap(vals)-len(vals) < len(row) {
			vals = make([]float64, 0, len(row)*spare)
		}
		off := len(vals)
		vals = append(vals, row...)
		v = vals[off:len(vals):len(vals)]
	}
	// Every field, one by one: a literal is block-copied, a bulk write barrier (wbMove) per object.
	m.Name, m.Values, m.ID, m.Peer = rec[k:], v, rec[:k], peer
	return vals
}

// count returns how many objects of one store run materialise would copy,
// up to need: the run's length where the region decides admission, a pass
// under the box where the box admits only a fraction of the region (MIRA).
func (st *queryState) count(run fissione.Run, need int) int {
	if !st.boxPrune {
		return min(len(run.Idx), need)
	}
	n := 0
	for i := 0; i < len(run.Idx) && n < need; i++ {
		if st.admits(run.Idx[i].Key, run.Vals[i*run.Stride:][:run.Idx[i].N]) {
			n++
		}
	}
	return n
}

// capacityHint counts, up to need, what a page is about to copy from several
// runs, so the result is allocated once. Publishes run concurrently and the
// fill takes each store's lock again: it sizes the slice and bounds nothing.
func (st *queryState) capacityHint(runs []located, need int) int {
	n := 0
	for i := range runs {
		st.net.PeerAt(runs[i].serving).ViewSpan(runs[i].span, func(run fissione.Run) { n += st.count(run, need-n) })
		if n >= need {
			break
		}
	}
	return n
}

// fill appends the objects of one store run that the query admits to out,
// up to the page cut; more reports that it stopped at a match beyond the
// page. peer names the replica serving the run. A run admitsAll passes and
// the cut does not fall inside is one block: its value column copied once —
// into a new chunk sized as writeMatch sizes one when the current has no
// room — then each object's header, field by field as writeMatch writes it.
// Any other run (a corner leaf's, MIRA's, one the cut splits) is filled
// object by object.
func (st *queryState) fill(out []Match, vals []float64, run fissione.Run, peer string) (_ []Match, _ []float64, more bool) {
	limit, k := st.cfg.Limit, st.net.K()
	if (limit == 0 || len(out)+len(run.Idx) <= limit) && st.admitsAll(run) {
		out = slices.Grow(out, len(run.Idx)) // grows past the hint on racing publishes
		w := run.Stride
		if cap(vals)-len(vals) < len(run.Vals) {
			vals = make([]float64, 0, w*(cap(out)-len(out)))
		}
		col := vals[len(vals):][:len(run.Vals)]
		vals = append(vals, run.Vals...)
		dst, j := out[len(out):][:len(run.Idx)], 0
		for i := range run.Idx {
			s := &run.Idx[i]
			if int(s.N) != w && st.hasBox {
				continue
			}
			var v []float64
			if s.N > 0 {
				v = col[i*w:][:s.N:s.N]
			}
			m, rec := &dst[j], run.Rec(i)
			m.Name, m.Values, m.ID, m.Peer = rec[k:], v, rec[:k], peer
			j++
		}
		return out[:len(out)+j], vals, false
	}
	for i := range run.Idx {
		s := &run.Idx[i]
		row := run.Vals[i*run.Stride:][:s.N]
		if !st.admits(s.Key, row) {
			continue
		}
		rec := run.Rec(i)
		if limit > 0 && len(out) >= limit && rec[:k] != out[len(out)-1].ID {
			return out, vals, true
		}
		out = slices.Grow(out, 1)[:len(out)+1] // grows past the hint on racing publishes, ties at the cut
		vals = writeMatch(&out[len(out)-1], vals, cap(out)-len(out)+1, rec, k, row, peer)
	}
	return out, vals, false
}

// page is a result being built: the slice the caller receives, the backing
// array its values share, and whether a match exists beyond the page cut.
type page struct {
	out  []Match
	vals []float64
	more bool
}

// need is the most matches a page holds: its limit and one slot of tie headroom.
func (st *queryState) need() int {
	if st.cfg.Limit > 0 {
		return st.cfg.Limit + 1
	}
	return math.MaxInt
}

// scan reads one located run into the page, up to the page cut: every object
// written once, values copied at the same moment, a block run's whole column
// in one copy (fill). A page not yet allocated is sized to what the run holds
// for it, under the same store lock acquisition.
func (st *queryState) scan(pg *page, r *located) {
	st.net.PeerAt(r.serving).ViewSpan(r.span, func(run fissione.Run) {
		if pg.out == nil {
			pg.out = make([]Match, 0, st.count(run, st.need()))
		}
		pg.out, pg.vals, pg.more = st.fill(pg.out, pg.vals, run, string(st.net.IDAt(r.serving)))
	})
	st.ends = append(st.ends, int32(len(pg.out)))
	st.scanned(r)
}

// scanRuns reads runs, ordered by ObjectID, into the page: all, or those up to
// the first match beyond the page cut. A single run (every lookup, every
// one-destination range) sizes and fills the page under one lock acquisition;
// several are sized by a pass of their own.
func (st *queryState) scanRuns(pg *page, runs []located) {
	if pg.out == nil && len(runs) > 1 {
		pg.out = make([]Match, 0, st.capacityHint(runs, st.need()))
	}
	for i := 0; i < len(runs) && !pg.more; i++ {
		st.scan(pg, &runs[i])
	}
}

// result is the page's matches (nil when none) and, when a match exists
// beyond them, the cursor that resumes after the last.
func (pg *page) result() (out []Match, next kautz.Str) {
	if len(pg.out) == 0 {
		return nil, ""
	}
	if pg.more {
		next = kautz.Str(pg.out[len(pg.out)-1].ID)
	}
	return pg.out, next
}

// materialise is a query's second phase: it reads the located runs, which
// close ordered by ObjectID, straight into the slice the caller receives. With
// a Limit the fill stops at the page cut — extended through a run of equal
// ObjectIDs, which never crosses a run boundary (every ObjectID lives in one
// run), so the strictly-greater next cursor neither skips nor repeats an
// object — and reads on only until the first further match proves there is a
// next page. cuts, when asked for, is the result cut at the runs' boundaries.
func (st *queryState) materialise(cut bool) (out []Match, cuts [][]Match, next kautz.Str) {
	var pg page
	st.scanRuns(&pg, st.runs)
	if cut && len(pg.out) > 0 {
		cuts = make([][]Match, 0, len(st.ends))
		start := 0
		for _, end := range st.ends {
			if end := int(end); end > start {
				cuts = append(cuts, pg.out[start:end:end])
				start = end
			}
		}
	}
	out, next = pg.result()
	return out, cuts, next
}
