package core

import (
	"context"
	"fmt"
	"sort"

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
	if e.tree == nil {
		return nil, ErrNoTree
	}
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k ≥ 1, got %d", k)
	}
	if cfg.Limit > 0 || cfg.After != "" {
		return nil, fmt.Errorf("core: top-k does not paginate; its result cap is k")
	}
	box, err := e.tree.NewBox(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("core: top-k bounds: %w", err)
	}
	region, err := e.tree.QueryRegion(box)
	if err != nil {
		return nil, fmt.Errorf("core: top-k region: %w", err)
	}
	from, ok := e.net.Peer(issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}

	st := e.newState(cfg, &box)
	defer st.release()
	// Process subregions from the high end, one drained queue at a time:
	// once a subregion yields k matches, lower subregions cannot contribute
	// to the top k (the naming is order-preserving, so higher regions hold
	// higher values). Delays take the maximum and message counts add, as
	// for subqueries run in parallel.
	parts := region.SplitByFirstSymbol()
	ran := 0
	for i := len(parts) - 1; i >= 0 && st.nmatches < k; i-- {
		st.seed(from, parts[i])
		if err := e.pump(ctx, st); err != nil {
			return nil, err
		}
		ran++
	}

	res := st.result(ran)
	e.metrics.note(res.Stats, false)
	matches := res.Matches
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Values[0] != matches[j].Values[0] {
			return matches[i].Values[0] > matches[j].Values[0]
		}
		return matches[i].Name < matches[j].Name
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return &TopKResult{Matches: matches, Stats: res.Stats}, nil
}

// FloodQuery executes the range query without PIRA's pruning predicate:
// every peer forwards to all of its out-neighbors until the destination
// level, and matching happens only at delivery. It returns the same result
// set as RangeQuery at a much higher message cost; it exists to measure the
// value of pruning and must not be used for real queries.
func (e *Engine) FloodQuery(ctx context.Context, issuer kautz.Str, lo, hi []float64, opts ...QueryOption) (*RangeResult, error) {
	return e.FloodQueryWith(ctx, issuer, lo, hi, buildQueryConfig(opts))
}

// FloodQueryWith is FloodQuery with the configuration given by value.
func (e *Engine) FloodQueryWith(ctx context.Context, issuer kautz.Str, lo, hi []float64, cfg QueryConfig) (*RangeResult, error) {
	if e.tree == nil {
		return nil, ErrNoTree
	}
	box, err := e.tree.NewBox(lo, hi)
	if err != nil {
		return nil, err
	}
	region, err := e.tree.QueryRegion(box)
	if err != nil {
		return nil, err
	}
	from, ok := e.net.Peer(issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	region, ok = clipRegionAfter(region, cfg.After)
	if !ok {
		return &RangeResult{}, nil
	}
	st := e.newState(cfg, &box)
	defer st.release()
	st.flood = true
	parts := st.seedDescent(from, region)
	if err := e.pump(ctx, st); err != nil {
		return nil, err
	}
	res := st.result(parts)
	e.metrics.note(res.Stats, false)
	return res, nil
}
