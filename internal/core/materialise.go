package core

import (
	"cmp"
	"math"
	"slices"

	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
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

// scanned reports one run's completed scan to the query's observer.
func (st *queryState) scanned(r *located) {
	if st.cfg.Trace != nil {
		st.cfg.Trace.Hop(HopScan, st.net.IDAt(r.owner), st.net.IDAt(r.serving), int(r.depth), 0)
	}
}

// page is a result being built, in two steps. The walk over the located runs
// (scanRuns) counts what it will hold, n objects and cells values, up to its
// cut, the ObjectID counted last (last) and whether a match lies beyond
// (more). build then writes out.
type page struct {
	n, cells int
	more     bool
	last     string
	out      []Match
}

// plan is the walk's step over one store run, under its store's lock: a run
// inside the box — there is none (every lookup), or its owner's ranks lie
// inside it on every attribute (naming.Tree.Classify) — is taken whole
// (take), any other admitted into the buffer; ends records the buffer's
// length after it.
func (st *queryState) plan(pg *page, r *located, run *fissione.Run) {
	lo, hi := st.net.RanksAt(r.owner)
	if !st.hasBox || st.tree.Classify(kautz.Span{Lo: lo, Hi: hi}, st.corners) == naming.Inside {
		st.take(pg, r, run)
	} else {
		st.admit(pg, *run)
	}
	st.ends = append(st.ends, int32(len(st.recs)))
}

// take counts an inside run into the page and marks it to be re-read
// (whole): unpaged, by its length, which only sizes the page; paged, its
// objects of the box's arity up to the cut — at the limit, extended through
// the ObjectID it falls in — with the run's span ended there and the first
// further one setting more.
func (st *queryState) take(pg *page, r *located, run *fissione.Run) {
	limit, w, end := st.cfg.Limit, len(st.box.Lo), -1
	if limit == 0 {
		r.whole, pg.n, pg.cells = true, pg.n+len(run.Idx), pg.cells+len(run.Vals)
		return
	}
	for i := range run.Idx {
		if s := &run.Idx[i]; int(s.N) == w {
			if pg.n >= limit && (end < 0 || s.Key != run.Idx[end].Key) {
				pg.more = true
				break
			}
			pg.n, end = pg.n+1, i
		}
	}
	if end >= 0 {
		r.whole, r.span.Hi, pg.cells = true, run.Idx[end].Key, pg.cells+(end+1)*run.Stride
		pg.last = run.Rec(end)[:st.net.K()]
	}
}

// admits applies the delivery filter — the query box, when there is one —
// to one object of a boundary run, read in place under the serving peer's
// store lock: a row of another arity (a value-less exact-match object) is
// refused first, then the object's rank decides (naming.Tree.Classify), and
// only an object on a corner's leaf on some attribute pays the float test.
func (st *queryState) admits(key uint64, row []float64) bool {
	if !st.hasBox {
		return true
	}
	c := st.tree.Classify(kautz.Span{Lo: key, Hi: key}, st.corners)
	return len(row) == len(st.box.Lo) && (c == naming.Inside || c == naming.Edge && st.box.Contains(row))
}

// admit is a boundary run's one pass: each object the filter admits, up to
// the page cut, is buffered as its record (records outlive the store lock)
// and its row, as wide as the box. The cut falls at the limit, extended
// through the ObjectID it falls in — a tie group never crosses a run
// boundary — and the first further match sets more. The buffer grows once a
// run, by as much as the run holds.
func (st *queryState) admit(pg *page, run fissione.Run) {
	limit, k, n, last := st.cfg.Limit, st.net.K(), pg.n, ""
	st.recs, st.col = slices.Grow(st.recs, len(run.Idx)), slices.Grow(st.col, len(run.Idx)*len(st.box.Lo))
	cols := len(st.col)
	for i := range run.Idx {
		s := &run.Idx[i]
		row := run.Vals[i*run.Stride:][:s.N]
		if !st.admits(s.Key, row) {
			continue
		}
		rec := run.Rec(i)
		if limit > 0 && n >= limit && rec[:k] != last {
			pg.more = true
			break
		}
		st.recs = append(st.recs, rec)
		st.col = append(st.col, row...)
		n, last = n+1, rec[:k]
	}
	if n > pg.n {
		pg.last = last
	}
	pg.n, pg.cells = n, pg.cells+len(st.col)-cols
}

// build writes the page the walk planned, allocated once at its size, from
// the walked runs st.runs[:len(st.ends)] in order: a whole run re-read under
// its store's lock and copied as one block, a boundary run copied from the
// buffer; ends becomes the page's length after each run, whose scan is then
// complete (HopScan). Writes landing between the walk and a re-read change
// only what is written: a paged run holds at most the room the page has left,
// extended through the ObjectID it ends on, and a further object ends the
// page there with more set. A page whose length then differs from the plan
// is clipped, an outgrown value array reallocated by append.
func (st *queryState) build(pg *page) {
	out, vals := make([]Match, 0, pg.n), make([]float64, 0, pg.cells)
	from, w, limit := 0, len(st.box.Lo), st.cfg.Limit
	for i, end := range st.ends {
		r, room, cut := &st.runs[i], math.MaxInt, false
		if limit > 0 {
			room = max(limit-len(out), 0)
		}
		if r.whole {
			st.net.PeerAt(r.serving).ViewSpan(r.span, func(run fissione.Run) { out, vals, cut = st.block(out, vals, run, room) })
		} else {
			out, vals, cut = st.copyOut(out, vals, st.recs[from:end], st.col[from*w:int(end)*w], room)
			from = int(end)
		}
		st.ends[i] = int32(len(out))
		st.scanned(r)
		if cut {
			pg.more, st.ends = true, st.ends[:i+1]
			break
		}
	}
	if len(out) != pg.n {
		out = slices.Clip(out)
	}
	pg.out = out
}

// block appends a whole run to the page out and its values to vals: the
// run's value column copied once, then each object of the box's arity (any,
// without a box) field by field, room of them and any sharing the last one's
// ObjectID; cut reports a further object.
func (st *queryState) block(out []Match, vals []float64, run fissione.Run, room int) (_ []Match, _ []float64, cut bool) {
	k, w, stride, box := st.net.K(), len(st.box.Lo), run.Stride, st.hasBox
	out, vals = slices.Grow(out, len(run.Idx)), append(vals, run.Vals...) // grow only on racing publishes
	col := vals[len(vals)-len(run.Vals):]
	dst, j := out[len(out):][:len(run.Idx)], 0
	for i := range run.Idx {
		s := &run.Idx[i]
		if int(s.N) != w && box {
			continue
		}
		var v []float64
		if s.N > 0 {
			v = col[i*stride:][:s.N:s.N]
		}
		rec := run.Rec(i)
		if j >= room && (j == 0 || rec[:k] != dst[j-1].ID) {
			return out[:len(out)+j], vals, true
		}
		m := &dst[j]
		// Every field, one by one: a literal is block-copied, a bulk write barrier (wbMove) per object.
		m.Name, m.Values, m.ID = rec[k:], v, rec[:k]
		j++
	}
	return out[:len(out)+j], vals, false
}

// copyOut appends buffered objects to the page out, their box-wide rows to
// vals: room of them and any sharing the last one's ObjectID; cut reports a
// further object.
func (st *queryState) copyOut(out []Match, vals []float64, recs []string, rows []float64, room int) (_ []Match, _ []float64, cut bool) {
	k, w := st.net.K(), len(st.box.Lo)
	if n := len(recs); n > room {
		for n = room; n > 0 && n < len(recs) && recs[n][:k] == recs[n-1][:k]; n++ {
		}
		recs, rows, cut = recs[:n], rows[:n*w], n < len(recs)
	}
	out, vals = slices.Grow(out, len(recs)), append(vals, rows...)
	col := vals[len(vals)-len(rows):]
	dst := out[len(out):][:len(recs)]
	for i, rec := range recs {
		m := &dst[i]
		m.Name, m.Values, m.ID = rec[k:], col[i*w:][:w:w], rec[:k]
	}
	return out[:len(out)+len(recs)], vals, cut
}

// scanRuns walks runs, ordered by ObjectID, for the page (plan), each under
// one acquisition of its store's lock: all, or those up to the first match
// beyond the page cut.
func (st *queryState) scanRuns(pg *page, runs []located) {
	for i := 0; i < len(runs) && !pg.more; i++ {
		r := &runs[i]
		st.net.PeerAt(r.serving).ViewSpan(r.span, func(run fissione.Run) { st.plan(pg, r, &run) })
	}
}

// result returns the built page's matches (nil when none) and, when a match
// exists beyond them, the cursor that resumes after the last — after the
// last counted, when racing unpublishes left the page empty.
func (st *queryState) result(pg *page) (out []Match, next kautz.Str) {
	if n := len(pg.out); n > 0 {
		out, pg.last = pg.out, pg.out[n-1].ID
	}
	if pg.more {
		next = kautz.Str(pg.last)
	}
	return out, next
}

// materialise is a query's second phase: it walks the located runs, which
// close ordered by ObjectID, then writes the slice the caller receives (plan,
// build). With a Limit the walk stops at the page cut — extended through a
// run of equal ObjectIDs, which never crosses a run boundary, so the
// strictly-greater next cursor neither skips nor repeats an object — and
// reads on only until the first further match proves there is a next page.
// cuts, when asked for, is the result cut at the runs' boundaries.
func (st *queryState) materialise(cut bool) (out []Match, cuts [][]Match, next kautz.Str) {
	var pg page
	st.scanRuns(&pg, st.runs)
	st.build(&pg)
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
