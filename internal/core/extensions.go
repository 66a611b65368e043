package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// This file implements two extensions beyond the paper's evaluation:
//
//   - TopK: the top-k query named as future work in the paper's Section 6,
//     built as a pruned descent that enters the queried region from its high
//     end and stops spawning branches once k matches are known.
//   - FloodQuery: an ablation that disables PIRA's pruning predicate,
//     quantifying how much of Armada's message efficiency comes from
//     pruning rather than from the FRT shape itself.

// TopKResult is the outcome of a top-k query.
type TopKResult struct {
	// Matches holds at most k objects with the largest first-attribute
	// values within the queried range, descending.
	Matches []Match
	Stats   Stats
}

// TopK returns up to k objects with the highest attribute-0 values in
// [lo, hi], issued by the given peer. The descent walks the region's
// subregions from the high end and short-circuits once k matches have been
// collected from regions that can only hold larger values than those
// remaining; the delay bound is PIRA's. Cancelling ctx aborts the descent.
func (e *Engine) TopK(ctx context.Context, issuer kautz.Str, lo, hi []float64, k int, opts ...QueryOption) (*TopKResult, error) {
	return boxed(e.TopKWith(ctx, issuer, lo, hi, k, buildQueryConfig(opts)))
}

// TopKWith is TopK with the configuration given, and the result returned, by
// value. The selection works in the pooled state's buffers, so a top-k
// allocates only the objects and the values it returns.
func (e *Engine) TopKWith(ctx context.Context, issuer kautz.Str, lo, hi []float64, k int, cfg QueryConfig) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("core: top-k needs k ≥ 1, got %d", k)
	}
	if cfg.Limit > 0 || cfg.After != "" {
		return TopKResult{}, fmt.Errorf("core: top-k does not paginate; its result cap is k")
	}
	st := e.newState(cfg, issuer)
	defer st.release()
	if err := st.prepare(lo, hi); err != nil {
		return TopKResult{}, err
	}
	from, ok := e.net.Slot(issuer)
	if !ok {
		return TopKResult{}, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	// Process subregions from the high end, one drained queue at a time:
	// once a subregion yields k matches, lower subregions cannot contribute
	// to the top k (the naming is order-preserving, so higher regions hold
	// higher values). Delays take the maximum and message counts add, as
	// for subqueries run in parallel.
	var buf [3]kautz.Span
	parts := st.corners.AppendSplitByFirstSymbol(e.net.K(), buf[:0])
	n, m := min(2*k, 256), len(st.box.Lo) // the selection's buffers whole, unless k is huge
	st.top = selection{k: k, m: m, idLen: e.net.K(), kept: slices.Grow(st.top.kept, n), rows: slices.Grow(st.top.rows, n*m), spare: st.top.spare}
	st.span = st.corners
	ran, found, scanned := 0, 0, 0
	for i := len(parts) - 1; i >= 0 && found < k; i-- {
		e.enter(st, from, parts[i])
		if err := e.pump(ctx, st); err != nil {
			return TopKResult{}, err
		}
		ran++
		found += st.selectTop(st.runs[scanned:], &st.top)
		scanned = len(st.runs)
	}
	return TopKResult{Matches: st.top.matches(), Stats: e.close(st, ran)}, nil
}

// candidate is one object a top-k selection holds on to while the scan goes
// on: its record, ObjectID‖Name — no slot outlives the store lock — and the
// index of its row in the selection's own buffer, copied under the store
// lock: the store's column shifts under the next publish.
type candidate struct {
	rec string
	v0  float64 // the row's first value, which decides nearly every comparison
	row int
}

// compare is the top-k result order: first attribute descending, then Name
// and ObjectID ascending; a record's first idLen bytes are its ObjectID.
func (a *candidate) compare(b *candidate, idLen int) int {
	if c := cmp.Compare(b.v0, a.v0); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rec[idLen:], b.rec[idLen:]); c != 0 {
		return c
	}
	return cmp.Compare(a.rec[:idLen], b.rec[:idLen])
}

// selection is a k-bounded top-k: it keeps at most 2k candidates, and each
// time it fills up it sorts them, keeps the best k and raises the bar to
// the k-th — so an offer costs one comparison when it loses to the bar and
// O(log k) amortised when it is kept, however many objects are offered. Its
// buffers are the pooled query state's.
type selection struct {
	k, m, idLen int // m values a row: every candidate passed the box; idLen the ObjectID length
	kept        []candidate
	// rows holds the kept candidates' values, m each; a cut compacts the
	// survivors' into spare, best first, and the two trade places.
	rows, spare []float64
	bar         candidate // the k-th best at the last cut; set once k were kept
	full        bool
}

// offer considers run's object i, of values row, keeping a copy of the row
// if the object may still be among the best k; against the bar most of what
// a scan visits loses on its first value.
func (s *selection) offer(run *fissione.Run, i int, row []float64) {
	if s.full && row[0] < s.bar.v0 {
		return
	}
	c := candidate{rec: run.Rec(i), v0: row[0], row: len(s.kept)}
	if s.full && c.compare(&s.bar, s.idLen) >= 0 {
		return
	}
	s.rows = append(s.rows, row...)
	if s.kept = append(s.kept, c); len(s.kept) >= 2*s.k {
		s.cut()
	}
}

// cut orders the kept candidates, best first, and drops all but k.
func (s *selection) cut() {
	slices.SortFunc(s.kept, func(a, b candidate) int { return a.compare(&b, s.idLen) })
	if len(s.kept) >= s.k {
		s.kept = s.kept[:s.k]
		s.bar, s.full = s.kept[s.k-1], true
	}
	next := slices.Grow(s.spare[:0], cap(s.rows))
	for i := range s.kept {
		c := &s.kept[i]
		next = append(next, s.rows[c.row*s.m:][:s.m]...)
		c.row = i
	}
	s.rows, s.spare = next, s.rows
}

// matches materialises the selection, best first.
func (s *selection) matches() []Match {
	s.cut()
	if len(s.kept) == 0 {
		return nil
	}
	out, vals := make([]Match, len(s.kept)), slices.Clone(s.rows[:len(s.kept)*s.m])
	for i := range s.kept {
		m, rec := &out[i], s.kept[i].rec
		// Every field, one by one: a literal is block-copied, a bulk write barrier (wbMove) per object.
		m.Name, m.Values, m.ID = rec[s.idLen:], vals[i*s.m:][:s.m:s.m], rec[:s.idLen]
	}
	return out
}

// selectTop scans located runs into a top-k selection, the runs and each
// run's slots from the high end, and returns how many objects they admitted.
// With one attribute a lower ObjectID holds a strictly lower value, so it
// stops at a slot below a full selection's bar once no slot before it shares
// its ObjectID: every slot left is lower still. MIRA reads every run whole.
func (st *queryState) selectTop(runs []located, top *selection) (admitted int) {
	sortRuns(runs)
	stopped := false
	for i := len(runs) - 1; i >= 0 && !stopped; i-- {
		r := &runs[i]
		st.net.PeerAt(r.serving).ViewSpan(r.span, func(run fissione.Run) {
			for j := len(run.Idx) - 1; j >= 0 && !stopped; j-- {
				s := &run.Idx[j]
				row := run.Vals[j*run.Stride:][:s.N]
				stopped = !st.boxPrune && top.full && s.N > 0 && row[0] < top.bar.v0 && (j == 0 || run.Idx[j-1].Key != s.Key)
				if !stopped && st.admits(s.Key, row) {
					admitted++
					top.offer(&run, j, row)
				}
			}
		})
		st.scanned(r)
	}
	return admitted
}

// FloodQuery executes the range query without PIRA's pruning predicate:
// every peer forwards to all of its out-neighbors until the destination
// level, and matching happens only at delivery. It returns the same result
// set as RangeQuery at a much higher message cost; it exists to measure the
// value of pruning and must not be used for real queries.
func (e *Engine) FloodQuery(ctx context.Context, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) (*RangeResult, error) {
	return boxed(e.rangeQuery(ctx, issuer, lo, hi, buildQueryConfig(opts), true, true))
}

// FloodQueryWith is FloodQuery with the configuration given, and the result
// returned, by value and without Runs.
func (e *Engine) FloodQueryWith(ctx context.Context, issuer kautz.Str, lo, hi []float64, cfg QueryConfig) (RangeResult, error) {
	return e.rangeQuery(ctx, issuer, lo, hi, cfg, true, false)
}
