package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Kind: EvDescentStep, Depth: i})
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := 7 + i; ev.Depth != want {
			t.Errorf("event %d depth = %d, want %d (oldest-first order)", i, ev.Depth, want)
		}
	}
	// Timestamps are stamped monotonically.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Errorf("events out of time order: %v then %v", evs[i-1].At, evs[i].At)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: EvDeliver, QID: uint64(w)})
				if i%100 == 0 {
					_ = r.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != 8*500 {
		t.Errorf("total = %d, want %d", r.Total(), 8*500)
	}
	if got := len(r.Events()); got != 128 {
		t.Errorf("retained = %d, want 128", got)
	}
}

// TestChromeTraceRoundTrip records one full query lifecycle and checks the
// Chrome trace-event export parses back with matched async span begin/end
// and the lifecycle's instants in between.
func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Record(Event{Kind: EvQueryStart, QID: 7, From: "010", Note: "range"})
	r.Record(Event{Kind: EvDescentStep, QID: 7, From: "010", To: "101", Depth: 1, Remaining: 2})
	r.Record(Event{Kind: EvDeliver, QID: 7, From: "101", To: "101", Depth: 2})
	r.Record(Event{Kind: EvReplicaRedirect, QID: 7, From: "101", To: "012", Depth: 2})
	r.Record(Event{Kind: EvPageCut, QID: 7, Note: "0101010"})
	r.Record(Event{Kind: EvQueryEnd, QID: 7, V1: 3, V2: 9})
	r.Record(Event{Kind: EvSplit, From: "101", V1: 1})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    *int64         `json:"ts"`
			ID    string         `json:"id"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("exported %d events, want 7", len(doc.TraceEvents))
	}
	var begins, ends int
	for _, ce := range doc.TraceEvents {
		if ce.TS == nil {
			t.Errorf("event %q missing ts", ce.Name)
		}
		switch ce.Phase {
		case "b":
			begins++
			if ce.ID != "7" || ce.Name != "query" {
				t.Errorf("begin span id=%q name=%q", ce.ID, ce.Name)
			}
			if ce.Args["query_kind"] != "range" {
				t.Errorf("begin args = %v", ce.Args)
			}
		case "e":
			ends++
			if ce.ID != "7" {
				t.Errorf("end span id=%q", ce.ID)
			}
			if ce.Args["delay"] != float64(3) || ce.Args["messages"] != float64(9) {
				t.Errorf("end args = %v", ce.Args)
			}
		case "i":
		default:
			t.Errorf("unexpected phase %q", ce.Phase)
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("span begin/end = %d/%d, want 1/1", begins, ends)
	}
	// The page cut's cursor must survive the round trip.
	var sawCut bool
	for _, ce := range doc.TraceEvents {
		if ce.Name == "page-cut" {
			sawCut = true
			if ce.Args["cursor"] != "0101010" {
				t.Errorf("page-cut args = %v", ce.Args)
			}
		}
	}
	if !sawCut {
		t.Error("no page-cut instant exported")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvQueryStart, EvQueryEnd, EvDescentStep, EvDeliver,
		EvReplicaRedirect, EvShortcutSeed,
		EvPageCut, EvRepair, EvSplit, EvMigrate}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "event(200)" {
		t.Errorf("unknown kind = %q", EventKind(200).String())
	}
}
