package core

import (
	"context"
	"fmt"

	"armada/internal/kautz"
)

// Walk is what one paged range walk keeps between its pages: the owners its
// last locate delivered to that are not yet wholly behind the cursor. Each
// page maps the walk's bounds into its own pooled state, as any range query
// does, so a walk holds no box of its own. The zero value is a walk about to
// run its first page; a Walk belongs to one engine and one caller at a time.
//
// A page is positional. It validates the tile under the cursor by identity
// (see Tile), sends that owner alone one direct message, scans it from the
// keyset cursor, and moves to the next tile only when the run drained before
// the page was full or before a further match proved there is a next page.
// That is exact with no store version: the tiles were adjacent in the cover
// when located (under MIRA the gaps are prefixes the box cannot meet), any
// topology change to who owns part of the remainder renames or releases a slot
// the walk validates before it reads it, and the keyset cursor makes a page
// correct against concurrent writes. Only a failed validation re-locates the
// remainder past the cursor, which refills the tiles.
type Walk struct {
	tiles []Tile // ascending, the first may hold the cursor; nil until a page has located
}

// WalkPage runs the walk's next page — the range [lo, hi], the same on every
// page, after cfg.After, at most cfg.Limit matches — and reports
// whether it located: the walk's first page, and one that met a stale tile
// (stale), are ordinary range queries over the remainder, Router and all. A
// positional page consults no routing state, and its Stats and Destinations
// are the owners it addressed (see Stats.DescentsSaved); with nothing past the
// cursor that is none, and like such a range query it returns the zero result.
// A failed page leaves the walk as it was.
func (e *Engine) WalkPage(ctx context.Context, w *Walk, issuer kautz.Str, lo, hi []float64, cfg QueryConfig) (res RangeResult, located, stale bool, err error) {
	from, ok := e.net.Slot(issuer)
	if !ok {
		return res, false, false, fmt.Errorf("%w: %q", ErrNoSuchPeer, issuer)
	}
	st := e.newState(cfg, issuer)
	if err = st.prepare(lo, hi); err != nil {
		st.release()
		return res, false, false, err
	}
	first, tiles := w.tiles == nil, w.tiles
	for len(tiles) > 0 && tiles[0].ID < cfg.After && !cfg.After.HasPrefix(tiles[0].ID) {
		tiles = tiles[1:] // wholly behind the cursor
	}
	st.seeded = true // until a descent runs
	st.span, _ = st.corners.Past(cfg.After)

	var pg page
	for i := 0; !pg.more && i < len(tiles); i++ {
		t := tiles[i]
		if stale = e.net.IDAt(t.Slot) != t.ID; stale {
			break
		}
		st.queue = append(st.queue, msg{to: t.Slot, span: st.span, depth: 1, direct: true})
		if err = e.pump(ctx, st); err != nil {
			break
		}
		st.scanRuns(&pg, st.runs[len(st.runs)-1:])
	}

	subregions := 0
	if (first || stale) && err == nil {
		span, ok := st.corners.Past(cfg.After) // the remainder lies past the cursor and the owners the page walked
		if n := len(st.runs); n > 0 {
			_, top := e.net.RanksAt(st.runs[n-1].owner)
			span.Lo, ok = max(span.Lo, top+1), ok && top < span.Hi
		}
		if ok {
			located = true
			ahead := len(st.runs)
			if subregions, err = e.route(ctx, st, from, span); err == nil {
				sortRuns(st.runs[ahead:])
				st.scanRuns(&pg, st.runs[ahead:])
			}
		}
	}
	if err != nil || len(st.runs) == 0 && !located {
		st.release() // failed, or nothing lies past the cursor
		return RangeResult{}, false, false, err
	}
	st.build(&pg, nil) // before close orders the runs: build reads them in walk order
	res = RangeResult{Stats: e.close(st, subregions), Destinations: st.destinations()}
	res.Matches, res.Next = st.result(&pg)
	if w.tiles = tiles; located {
		w.tiles = append(w.tiles[:0], st.tiles...)
	}
	st.finish()
	return res, located, stale, nil
}
