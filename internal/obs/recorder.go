package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// EventKind classifies one flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds, covering a query's full lifecycle plus the
// background control-plane actions interleaved with it.
const (
	// EvQueryStart opens a query span: From is the issuer, Note the query
	// kind.
	EvQueryStart EventKind = iota + 1
	// EvQueryEnd closes a query span: V1 is the realized hop delay, V2 the
	// message count; Note carries the error text when the query failed.
	EvQueryEnd
	// EvDescentStep is one FRT forward: From forwards to To at Depth with
	// Remaining hops to the destination level.
	EvDescentStep
	// EvDeliver is a delivery served by the region owner itself (From ==
	// To).
	EvDeliver
	// EvReplicaRedirect is a delivery the read policy redirected: From is
	// the region owner, To the serving replica.
	EvReplicaRedirect
	// EvShortcutSeed is one direct fan-out send of a seeded query (learned
	// owners tiled its region, so the descent was skipped): From is the
	// issuer, To the serving peer it chose.
	EvShortcutSeed
	// EvPageCut records a paginated query truncating its result; Note is
	// the continuation cursor (NextOffsetID).
	EvPageCut
	// EvRepair records replica repair after a topology change: From is the
	// repaired region's owner, V1 the objects copied.
	EvRepair
	// EvSplit records a controller auto-split: From is the split peer, V1
	// the extra cascade splits it needed.
	EvSplit
	// EvMigrate records a controller ownership migration: From is the
	// donor, To the hot peer, V1 the extra cascade splits.
	EvMigrate
)

// String names the kind for dumps and the Chrome trace export.
func (k EventKind) String() string {
	switch k {
	case EvQueryStart:
		return "query-start"
	case EvQueryEnd:
		return "query-end"
	case EvDescentStep:
		return "descent-step"
	case EvDeliver:
		return "deliver"
	case EvReplicaRedirect:
		return "replica-redirect"
	case EvShortcutSeed:
		return "shortcut-seed"
	case EvPageCut:
		return "page-cut"
	case EvRepair:
		return "repair"
	case EvSplit:
		return "split"
	case EvMigrate:
		return "migrate"
	default:
		return "event(" + strconv.Itoa(int(k)) + ")"
	}
}

// Event is one recorded flight-recorder event. Field meaning varies by
// Kind (see the kind constants); unused fields are zero.
type Event struct {
	// At is the event time relative to the recorder's start.
	At   time.Duration `json:"at"`
	Kind EventKind     `json:"kind"`
	// QID ties the event to one query's lifecycle; 0 for background events
	// (repair, split, migrate).
	QID       uint64 `json:"qid,omitempty"`
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	Remaining int    `json:"remaining,omitempty"`
	V1        int64  `json:"v1,omitempty"`
	V2        int64  `json:"v2,omitempty"`
	Note      string `json:"note,omitempty"`
}

// Recorder is a bounded ring buffer of flight-recorder events. Record
// appends under a short mutex (the buffer is preallocated; recording never
// allocates), overwriting the oldest events once full. A Recorder is safe
// for concurrent use.
type Recorder struct {
	start time.Time

	mu    sync.Mutex
	buf   []Event
	next  int // once the ring is full, the index the next event lands at: its oldest
	total Counter
}

// NewRecorder builds a recorder holding the last capacity events
// (capacity must be at least 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{start: time.Now(), buf: make([]Event, 0, capacity)}
}

// Record stamps ev.At and appends it, overwriting the oldest event when
// the ring is full.
func (r *Recorder) Record(ev Event) {
	ev.At = time.Since(r.start)
	r.total.Inc()
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Total returns how many events were recorded over the recorder's
// lifetime, including events the ring has since overwritten.
func (r *Recorder) Total() int64 { return r.total.Value() }

// TotalCounter exposes the lifetime event count as a registrable Counter.
func (r *Recorder) TotalCounter() *Counter { return &r.total }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). Queries export as async "b"/"e" spans
// keyed by QID; everything else as thread-scoped instants.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
// Query lifecycles become async spans (one per QID); hop and control-plane
// events become instants carrying their fields as args.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Cat:  "armada",
			TS:   ev.At.Microseconds(),
			PID:  1,
			TID:  1,
		}
		args := map[string]any{}
		if ev.QID != 0 {
			args["qid"] = ev.QID
		}
		if ev.From != "" {
			args["from"] = ev.From
		}
		if ev.To != "" {
			args["to"] = ev.To
		}
		switch ev.Kind {
		case EvQueryStart, EvQueryEnd:
			ce.Name = "query"
			ce.Cat = "query"
			ce.ID = strconv.FormatUint(ev.QID, 10)
			if ev.Kind == EvQueryStart {
				ce.Phase = "b"
				if ev.Note != "" {
					args["query_kind"] = ev.Note
				}
			} else {
				ce.Phase = "e"
				args["delay"] = ev.V1
				args["messages"] = ev.V2
				if ev.Note != "" {
					args["error"] = ev.Note
				}
			}
		case EvDescentStep, EvDeliver, EvReplicaRedirect, EvShortcutSeed:
			ce.Cat = "hop"
			ce.Phase = "i"
			ce.Scope = "t"
			args["depth"] = ev.Depth
			args["remaining"] = ev.Remaining
		case EvPageCut:
			ce.Cat = "query"
			ce.Phase = "i"
			ce.Scope = "t"
			if ev.Note != "" {
				args["cursor"] = ev.Note
			}
		default:
			ce.Cat = "control"
			ce.Phase = "i"
			ce.Scope = "t"
			if ev.V1 != 0 {
				args["v1"] = ev.V1
			}
			if ev.V2 != 0 {
				args["v2"] = ev.V2
			}
			if ev.Note != "" {
				args["note"] = ev.Note
			}
		}
		ce.Args = args
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: out})
}
