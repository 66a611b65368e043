package armada

import "armada/internal/core"

// Range is one attribute's queried interval [Low, High] (inclusive).
type Range struct {
	Low  float64
	High float64
}

// Object is a published object returned by a query.
type Object struct {
	// Name is the application-level object name.
	Name string
	// Values are the attribute values the object was published with (nil
	// for exact-match-only objects).
	Values []float64
	// ID is the object's Kautz-string ObjectID (on lookups, the looked-up
	// ObjectID).
	ID string
	// Peer is the identifier of the peer storing the object.
	Peer string
}

// Stats are the cost metrics of one query, in the paper's units: the
// engine's own type, so a query's costs reach the caller — and the
// diagnostics layer — exactly as the engine computed them.
type Stats = core.Stats

// Result is the outcome of one executed Query, whatever its kind.
type Result struct {
	// Objects are the matching objects. Range queries sort them by
	// (ObjectID, Name); top-k queries sort them by descending first
	// attribute; lookups return the objects published under the looked-up
	// ObjectID.
	Objects []Object
	// Destinations are the distinct peers that received the query,
	// ascending (empty for top-k and lookup results).
	Destinations []string
	// Owner is the peer owning the looked-up ObjectID (lookups only).
	Owner string
	// NextOffsetID is the pagination cursor of a limited range or flood
	// query: when non-empty, more matches exist beyond this page; rerun the
	// same query with WithOffsetID(NextOffsetID) for the next one. Empty
	// when Objects completes the result set.
	NextOffsetID string
	// Stats carries the query's cost metrics.
	Stats Stats
}

// objectOf converts one engine match, copying the values: core.Match
// aliases the store's slices, and results handed to callers must never
// share memory with live peer stores.
func objectOf(m core.Match) Object {
	return Object{Name: m.Name, Values: copyValues(m.Values), ID: string(m.ObjectID), Peer: string(m.Peer)}
}

func copyValues(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	return append([]float64(nil), vs...)
}

// resultOf converts an engine result wholesale, reading the per-delivery
// runs directly (queries run with core.WithRunsOnly, so the engine never
// flattens). The values of all matches are copied into one shared backing
// array — one allocation instead of one per object. Together that leaves a
// hot-region result copied exactly once between delivery and caller.
func resultOf(r *core.RangeResult) *Result {
	out := &Result{Stats: r.Stats, NextOffsetID: string(r.Next)}
	total, values := 0, 0
	for _, run := range r.Runs {
		total += len(run)
		for _, m := range run {
			values += len(m.Values)
		}
	}
	if total > 0 {
		buf := make([]float64, 0, values)
		out.Objects = make([]Object, 0, total)
		for _, run := range r.Runs {
			for _, m := range run {
				var vals []float64
				if len(m.Values) > 0 {
					off := len(buf)
					buf = append(buf, m.Values...)
					vals = buf[off:len(buf):len(buf)]
				}
				out.Objects = append(out.Objects, Object{Name: m.Name, Values: vals, ID: string(m.ObjectID), Peer: string(m.Peer)})
			}
		}
	}
	if len(r.Destinations) > 0 {
		out.Destinations = make([]string, len(r.Destinations))
		for i, d := range r.Destinations {
			out.Destinations[i] = string(d)
		}
	}
	return out
}
