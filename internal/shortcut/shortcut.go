// Package shortcut implements the issuer-side route cache: a bounded set of
// learned owners, one entry per peer slot holding the identifier the owner
// carried there. Entries are learned from the deliveries of every descent, so
// warm regions accumulate routing state for free; a query whose destinations
// are all known is seeded at them in one direct hop each instead of a ~log N
// descent of the issuer's forward routing tree (core.Router).
//
// Correctness under churn is by identity, never best-effort: an entry is
// asked about only with the identifier its slot carries now (the engine's
// seeding walk reads it from the live topology), and answers for no other.
// Every topology change renames or releases the slots it touches, so a join,
// leave, crash, split or migration invalidates exactly the entries of the
// regions it changed and nothing is ever flushed. A stale entry can cost the
// descent it would have saved, never results; it is overwritten when its
// slot's new owner is learned, or evicted like any other.
//
// A hit takes no lock and allocates nothing: one atomic load per destination
// and a second-chance bit set at most once per sweep. Learners — descents,
// the path that was slow anyway — serialize on a mutex for the CLOCK ring.
package shortcut

import (
	"sync"
	"sync/atomic"

	"armada/internal/core"
	"armada/internal/kautz"
	"armada/internal/obs"
)

// entry is one learned owner. The identifier is immutable — relearning a
// slot installs a new entry — so readers need no lock; used is the CLOCK
// second-chance bit.
type entry struct {
	id   kautz.Str
	used atomic.Bool
}

// Table is a bounded set of learned owners, safe for concurrent use (queries
// share it under the network's read lock). It implements core.Router.
type Table struct {
	// bySlot holds each slot's entry. Readers load the slice and an element;
	// learners replace elements and, when a slot beyond it is learned, the
	// slice (under mu).
	bySlot atomic.Pointer[[]atomic.Pointer[entry]]
	// Every query on every core reads bySlot and bumps a counter below; apart,
	// so the reads share a cache line with nothing that is written.
	_ [64]byte

	mu   sync.Mutex // learners only
	ring []int32    // CLOCK: the slot whose entry occupies each position, -1 while free
	hand int
	live atomic.Int64 // occupied ring positions

	hits   obs.Counter // queries seeded from the table
	misses obs.Counter // queries that consulted it and descended
	stale  obs.Counter // entries overwritten because their slot changed owner
	evicts obs.Counter // entries evicted by the capacity bound
}

// NewTable creates a table holding at most capacity owners (at least 1).
func NewTable(capacity int) *Table {
	t := &Table{ring: make([]int32, max(capacity, 1))}
	for i := range t.ring {
		t.ring[i] = -1
	}
	t.bySlot.Store(new([]atomic.Pointer[entry]))
	return t
}

// lookup returns the slot's entry if it holds the tile's identifier.
func lookup(bySlot []atomic.Pointer[entry], tile core.Tile) *entry {
	if uint(tile.Slot) < uint(len(bySlot)) { // a negative slot is beyond it too
		if e := bySlot[tile.Slot].Load(); e != nil && e.id == tile.ID {
			return e
		}
	}
	return nil
}

// touch gives an entry its second chance; the bit is written only when
// clear, so a hot entry's cache line stays shared.
func (e *entry) touch() {
	if !e.used.Load() {
		e.used.Store(true)
	}
}

// Knows reports whether the tile's owner was learned — that identifier, in
// that slot.
func (t *Table) Knows(tile core.Tile) bool {
	e := lookup(*t.bySlot.Load(), tile)
	if e != nil {
		e.touch()
	}
	return e != nil
}

// Learn records the owners a descent delivered to, evicting by second chance
// when over capacity. Owners already known only have their bit set, without
// the learners' lock. A tile that names no owner — no slot, no identifier —
// is skipped.
func (t *Table) Learn(owners []core.Tile) {
	bySlot, locked := *t.bySlot.Load(), false
	for _, o := range owners {
		if o.Slot < 0 || o.ID == "" {
			continue
		}
		if e := lookup(bySlot, o); e != nil {
			e.touch()
			continue
		}
		if !locked {
			t.mu.Lock()
			bySlot, locked = *t.bySlot.Load(), true
		}
		bySlot = t.insertLocked(bySlot, o)
	}
	if locked {
		t.mu.Unlock()
	}
}

// insertLocked installs the entry for one owner and returns the slot index,
// regrown if the owner's slot lay beyond it. The caller holds t.mu.
func (t *Table) insertLocked(bySlot []atomic.Pointer[entry], o core.Tile) []atomic.Pointer[entry] {
	if int(o.Slot) >= len(bySlot) {
		grown := make([]atomic.Pointer[entry], max(int(o.Slot)+1, 2*len(bySlot)))
		for i := range bySlot {
			grown[i].Store(bySlot[i].Load())
		}
		bySlot = grown
		t.bySlot.Store(&grown)
	}
	at := &bySlot[o.Slot]
	switch old := at.Load(); {
	case old == nil:
		t.ring[t.claimLocked(bySlot)] = o.Slot
	case old.id == o.ID:
		return bySlot // a concurrent learner got here first
	default:
		t.stale.Inc() // the slot changed owner; its ring position carries over
	}
	at.Store(&entry{id: o.ID})
	return bySlot
}

// claimLocked frees the ring position the CLOCK hand stops at — one that was
// never used, or that of the first entry not used since the hand last passed
// it — and returns it.
func (t *Table) claimLocked(bySlot []atomic.Pointer[entry]) int {
	for {
		pos := t.hand
		t.hand = (t.hand + 1) % len(t.ring)
		slot := t.ring[pos]
		if slot < 0 {
			t.live.Add(1)
			return pos
		}
		if e := bySlot[slot].Load(); !e.used.Swap(false) {
			bySlot[slot].Store(nil)
			t.evicts.Inc()
			return pos
		}
	}
}

// Note counts one query that consulted the table: seeded from it, or
// descended despite it.
func (t *Table) Note(hit bool) {
	if hit {
		t.hits.Inc()
	} else {
		t.misses.Inc()
	}
}

// Stats is a snapshot of the table's counters.
type Stats struct {
	// Hits and Misses count the queries that consulted the table; Stale is
	// how many entries were overwritten because their slot had changed owner;
	// Evicted how many the capacity bound pushed out.
	Hits    int64
	Misses  int64
	Stale   int64
	Evicted int64
	// Entries is the current entry count; Capacity the configured bound.
	Entries  int
	Capacity int
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() Stats {
	return Stats{
		Hits:     t.hits.Value(),
		Misses:   t.misses.Value(),
		Stale:    t.stale.Value(),
		Evicted:  t.evicts.Value(),
		Entries:  int(t.live.Load()),
		Capacity: len(t.ring),
	}
}

// DescribeMetrics registers the table's counters on reg.
func (t *Table) DescribeMetrics(reg *obs.Registry) {
	reg.MustRegister("shortcut_hits_total", &t.hits)
	reg.MustRegister("shortcut_misses_total", &t.misses)
	reg.MustRegister("shortcut_stale_total", &t.stale)
	reg.MustRegister("shortcut_evictions_total", &t.evicts)
	reg.MustRegister("shortcut_entries", obs.GaugeFunc(t.live.Load))
}
