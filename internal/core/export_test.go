package core

import "armada/internal/kautz"

// RaceEnabled tells package core_test whether exact allocation counts hold.
const RaceEnabled = raceEnabled

// SeedOnly runs just the seeding walk of a query over the ObjectID ranks of
// span — no delivery, no result — and reports whether r's learned owners tile
// it, at how many destinations. It exists for the route-cache benchmarks in
// package core_test, which may import the cache; this package's own tests
// cannot.
func (e *Engine) SeedOnly(r Router, span kautz.Span) (dests int, ok bool) {
	st := e.newState(QueryConfig{Routes: r}, "", nil)
	defer st.release()
	ok = e.seed(st, span)
	return len(st.queue), ok
}
