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
func writeMatch(m *Match, vals []float64, spare int, rec string, k int, row []float64) []float64 {
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
	m.Name, m.Values, m.ID = rec[k:], v, rec[:k]
	return vals
}

// capacityHint counts, up to need, what a PIRA page is about to copy from
// several runs — their lengths — so the result is allocated once. Publishes
// run concurrently and the fill takes each store's lock again: it sizes the
// slice and bounds nothing.
func (st *queryState) capacityHint(runs []located, need int) int {
	n := 0
	for i := 0; i < len(runs) && n < need; i++ {
		st.net.PeerAt(runs[i].serving).ViewSpan(runs[i].span, func(run fissione.Run) { n += min(len(run.Idx), need-n) })
	}
	return n
}

// fill appends the objects of one store run that the query admits to out,
// up to the page cut; more reports that it stopped at a match beyond the
// page. A run admitsAll passes and the cut does not fall inside is one
// block: its value column copied once — into a new chunk sized as writeMatch
// sizes one when the current has no room — then each object's header, field
// by field as writeMatch writes it. Any other run (a corner leaf's, one the
// cut splits) is filled object by object. MIRA admits instead (admit).
func (st *queryState) fill(out []Match, vals []float64, run fissione.Run) (_ []Match, _ []float64, more bool) {
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
			m.Name, m.Values, m.ID = rec[k:], v, rec[:k]
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
		vals = writeMatch(&out[len(out)-1], vals, cap(out)-len(out)+1, rec, k, row)
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

// need is the most matches a page holds: its limit. A tie at the cut grows
// the page past it (fill, admit).
func (st *queryState) need() int {
	if st.cfg.Limit > 0 {
		return st.cfg.Limit
	}
	return math.MaxInt
}

// scan reads one located run into the page, up to the page cut, under one
// acquisition of the serving store's lock: MIRA into the state's buffer
// (admit), which result copies out; PIRA and lookups straight into the page,
// every object written once, a block run's column in one copy (fill), a page
// not yet allocated sized to what the run holds for it.
func (st *queryState) scan(pg *page, r *located) {
	st.net.PeerAt(r.serving).ViewSpan(r.span, func(run fissione.Run) {
		switch {
		case st.boxPrune:
			pg.more = st.admit(run)
			return
		case pg.out == nil:
			pg.out = make([]Match, 0, min(len(run.Idx), st.need()))
		}
		pg.out, pg.vals, pg.more = st.fill(pg.out, pg.vals, run)
	})
	st.ends = append(st.ends, int32(len(pg.out)+len(st.recs)))
	st.scanned(r)
}

// admit is MIRA's one pass over a store run: each object the box admits, up
// to the page cut by fill's rule, is buffered as its record (records outlive
// the store lock) and its row copied into the pooled value column; more
// reports a match beyond the page. A tie group never crosses a run boundary,
// so buffering whole runs up to the cut keeps the cursor exact.
func (st *queryState) admit(run fissione.Run) (more bool) {
	limit, k := st.cfg.Limit, st.net.K()
	for i := range run.Idx {
		s := &run.Idx[i]
		row := run.Vals[i*run.Stride:][:s.N]
		if !st.admits(s.Key, row) {
			continue
		}
		rec := run.Rec(i)
		if limit > 0 && len(st.recs) >= limit && rec[:k] != st.recs[len(st.recs)-1][:k] {
			return true
		}
		st.recs = append(st.recs, rec)
		st.col = append(st.col, row...)
	}
	return false
}

// settle copies what MIRA admitted into the page, allocated at exactly its
// size — one slice of matches, one value array — in run order. Every
// admitted row is as wide as the box.
func (st *queryState) settle(pg *page) {
	if len(st.recs) == 0 {
		return
	}
	k, w := st.net.K(), len(st.box.Lo)
	pg.out, pg.vals = make([]Match, len(st.recs)), make([]float64, len(st.col))
	copy(pg.vals, st.col)
	for i, rec := range st.recs {
		m := &pg.out[i]
		m.Name, m.Values, m.ID = rec[k:], pg.vals[i*w:][:w:w], rec[:k]
	}
}

// last is the ObjectID of the page's last match so far, admitted or
// written; "" while it holds none.
func (st *queryState) last(pg *page) string {
	if n := len(st.recs); n > 0 {
		return st.recs[n-1][:st.net.K()]
	}
	if n := len(pg.out); n > 0 {
		return pg.out[n-1].ID
	}
	return ""
}

// scanRuns reads runs, ordered by ObjectID, into the page: all, or those up to
// the first match beyond the page cut. A single run (every lookup, every
// one-destination range) sizes and fills the page under one lock acquisition;
// several are sized by a pass of their own (PIRA) or by what admit buffered
// (MIRA).
func (st *queryState) scanRuns(pg *page, runs []located) {
	if pg.out == nil && len(runs) > 1 && !st.boxPrune {
		pg.out = make([]Match, 0, st.capacityHint(runs, st.need()))
	}
	for i := 0; i < len(runs) && !pg.more; i++ {
		st.scan(pg, &runs[i])
	}
}

// result settles the page and returns its matches (nil when none) and, when
// a match exists beyond them, the cursor that resumes after the last.
func (st *queryState) result(pg *page) (out []Match, next kautz.Str) {
	st.settle(pg)
	if len(pg.out) == 0 {
		return nil, ""
	}
	if pg.more {
		next = kautz.Str(pg.out[len(pg.out)-1].ID)
	}
	return pg.out, next
}

// materialise is a query's second phase: it reads the located runs, which
// close ordered by ObjectID, each once, into the slice the caller receives
// (under MIRA through its buffer, see scan). With a Limit the scan stops at
// the page cut — extended through a run of equal ObjectIDs, which never
// crosses a run boundary (every ObjectID lives in one run), so the
// strictly-greater next cursor neither skips nor repeats an object — and
// reads on only until the first further match proves there is a next page.
// cuts, when asked for, is the result cut at the runs' boundaries.
func (st *queryState) materialise(cut bool) (out []Match, cuts [][]Match, next kautz.Str) {
	var pg page
	st.scanRuns(&pg, st.runs)
	out, next = st.result(&pg)
	if cut && len(out) > 0 {
		cuts = make([][]Match, 0, len(st.ends))
		start := 0
		for _, end := range st.ends {
			if end := int(end); end > start {
				cuts = append(cuts, out[start:end:end])
				start = end
			}
		}
	}
	return out, cuts, next
}
