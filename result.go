package armada

import "armada/internal/core"

// Range is one attribute's queried interval [Low, High] (inclusive).
type Range struct {
	Low  float64
	High float64
}

// Object is a published object returned by a query: Name, Values (the
// result's own copy — never a live store's memory), ID (its Kautz-string
// ObjectID; with Name, one immutable allocation made when the object was
// published) and Peer (the peer that served it). It is the engine's own
// result type, so a result is built once, where the store is scanned.
type Object = core.Match

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

// resultOf wraps an engine range result: the objects are the engine's,
// as it materialised them; only the destination identifiers change type.
func resultOf(r *core.RangeResult) *Result {
	out := &Result{Objects: r.Matches, NextOffsetID: string(r.Next), Stats: r.Stats}
	if len(r.Destinations) > 0 {
		out.Destinations = make([]string, len(r.Destinations))
		for i, d := range r.Destinations {
			out.Destinations[i] = string(d)
		}
	}
	return out
}
