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
	return e.TopKWith(ctx, issuer, lo, hi, k, buildQueryConfig(opts))
}

// TopKWith is TopK with the configuration given by value.
func (e *Engine) TopKWith(ctx context.Context, issuer kautz.Str, lo, hi []float64, k int, cfg QueryConfig) (*TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k ≥ 1, got %d", k)
	}
	if cfg.Limit > 0 || cfg.After != "" {
		return nil, fmt.Errorf("core: top-k does not paginate; its result cap is k")
	}
	box, region, err := e.prepare(lo, hi)
	if err != nil {
		return nil, err
	}
	from, ok := e.net.Slot(issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}

	st := e.newState(cfg, issuer, &box)
	defer st.release()
	// Process subregions from the high end, one drained queue at a time:
	// once a subregion yields k matches, lower subregions cannot contribute
	// to the top k (the naming is order-preserving, so higher regions hold
	// higher values). Delays take the maximum and message counts add, as
	// for subqueries run in parallel.
	var buf [3]kautz.Region
	parts := region.AppendSplitByFirstSymbol(buf[:0])
	top := selection{k: k, m: len(box.Lo)}
	st.span = fissione.SpanOf(region, "")
	ran, found, scanned := 0, 0, 0
	for i := len(parts) - 1; i >= 0 && found < k; i-- {
		st.enter(from, parts[i])
		if err := e.pump(ctx, st); err != nil {
			return nil, err
		}
		ran++
		found += st.selectTop(st.runs[scanned:], &top)
		scanned = len(st.runs)
	}
	return &TopKResult{Matches: top.matches(), Stats: e.close(st, ran)}, nil
}

// candidate is one object a top-k selection holds on to while the scan goes
// on: its slot by value — the record is immutable — and the index of its row
// in the selection's own buffer, copied under the store lock: the store's
// column shifts under the next publish and is no one's to keep.
type candidate struct {
	slot    fissione.Slot
	v0      float64 // the row's first value, which decides nearly every comparison
	row     int
	serving *fissione.Peer
}

// compare is the top-k result order: first attribute descending, then Name
// and ObjectID ascending.
func (a *candidate) compare(b *candidate) int {
	if c := cmp.Compare(b.v0, a.v0); c != 0 {
		return c
	}
	if c := cmp.Compare(a.slot.Rec[a.slot.ILen:], b.slot.Rec[b.slot.ILen:]); c != 0 {
		return c
	}
	return cmp.Compare(a.slot.Key, b.slot.Key)
}

// selection is a k-bounded top-k: it keeps at most 2k candidates, and each
// time it fills up it sorts them, keeps the best k and raises the bar to
// the k-th — so an offer costs one comparison when it loses to the bar and
// O(log k) amortised when it is kept, however many objects are offered.
type selection struct {
	k, m int // m values a row: every candidate passed the box
	kept []candidate
	// rows holds the kept candidates' values, m each; a cut compacts the
	// survivors' into spare, best first, and the two trade places.
	rows, spare []float64
	bar         candidate // the k-th best at the last cut; set once k were kept
	full        bool
}

// offer considers the object of slot s and values row, keeping a copy of
// the row if the object may still be among the best k; against the bar most
// of what a scan visits loses on its first value.
func (s *selection) offer(slot *fissione.Slot, row []float64, serving *fissione.Peer) {
	if s.full && row[0] < s.bar.v0 {
		return
	}
	c := candidate{slot: *slot, v0: row[0], row: len(s.kept), serving: serving}
	if s.full && c.compare(&s.bar) >= 0 {
		return
	}
	if s.kept == nil { // both buffers whole, unless k is huge
		n := min(2*s.k, 256)
		s.kept, s.rows = make([]candidate, 0, n), make([]float64, 0, n*s.m)
	}
	s.rows = append(s.rows, row...)
	if s.kept = append(s.kept, c); len(s.kept) >= 2*s.k {
		s.cut()
	}
}

// cut orders the kept candidates, best first, and drops all but k.
func (s *selection) cut() {
	slices.SortFunc(s.kept, func(a, b candidate) int { return a.compare(&b) })
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
	out := make([]Match, 0, len(s.kept))
	var vals []float64
	for i := range s.kept {
		c := &s.kept[i]
		out, vals = appendMatch(out, vals, &c.slot, s.rows[i*s.m:][:s.m], c.serving)
	}
	return out
}

// selectTop scans located runs into a top-k selection and returns how many
// objects they admitted. Runs are visited from the high end: where the
// naming orders the first attribute, the first run scanned fills the
// selection with near-final candidates and the rest lose to the bar.
func (st *queryState) selectTop(runs []located, top *selection) (admitted int) {
	sortRuns(runs)
	for i := len(runs) - 1; i >= 0; i-- {
		r := &runs[i]
		r.serving.ViewSpan(r.span, func(run fissione.Run) {
			for j := range run.Idx {
				s := &run.Idx[j]
				if row := run.Vals[j*run.Stride:][:s.N]; st.admits(row) {
					admitted++
					top.offer(s, row, r.serving)
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
