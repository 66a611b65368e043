package simnet

import (
	"context"
	"errors"
	"strconv"
	"testing"
)

// chainHandler forwards along a fixed chain of peers p0 -> p1 -> ... -> pN.
func chainHandler(n int) Handler {
	return func(m Message) []Message {
		i := m.Payload.(int)
		if i >= n {
			return nil
		}
		return []Message{{To: "p" + strconv.Itoa(i+1), Payload: i + 1}}
	}
}

// mustSync runs RunSync with a background context and fails on error.
func mustSync(t *testing.T, seeds []Message, handle Handler) Metrics {
	t.Helper()
	m, err := RunSync(context.Background(), seeds, handle)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunSyncChain(t *testing.T) {
	m := mustSync(t, []Message{{To: "p0", Payload: 0}}, chainHandler(5))
	if m.Delay != 5 || m.Messages != 5 {
		t.Fatalf("chain metrics = %+v, want delay 5 messages 5", m)
	}
}

func TestRunSyncSeedOnly(t *testing.T) {
	m := mustSync(t, []Message{{To: "a", Payload: nil}}, func(Message) []Message { return nil })
	if m.Delay != 0 || m.Messages != 0 {
		t.Fatalf("seed-only metrics = %+v, want zeros", m)
	}
}

func TestRunSyncNilContext(t *testing.T) {
	m, err := RunSync(nil, []Message{{To: "p0", Payload: 0}}, chainHandler(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Delay != 3 {
		t.Fatalf("nil-ctx metrics = %+v", m)
	}
}

func TestRunSyncFanout(t *testing.T) {
	// One seed fans out to 3 peers, each of which fans out to 2 more.
	handle := func(m Message) []Message {
		switch m.Payload.(int) {
		case 0:
			return []Message{{To: "a", Payload: 1}, {To: "b", Payload: 1}, {To: "c", Payload: 1}}
		case 1:
			return []Message{{To: "x", Payload: 2}, {To: "y", Payload: 2}}
		default:
			return nil
		}
	}
	m := mustSync(t, []Message{{To: "root", Payload: 0}}, handle)
	if m.Delay != 2 || m.Messages != 9 {
		t.Fatalf("fanout metrics = %+v, want delay 2 messages 9", m)
	}
}

func TestRunSyncMultipleSeeds(t *testing.T) {
	m := mustSync(t, []Message{
		{To: "p0", Payload: 3}, // short chain: 2 hops
		{To: "p0", Payload: 0}, // full chain: 5 hops
	}, chainHandler(5))
	if m.Delay != 5 || m.Messages != 7 {
		t.Fatalf("multi-seed metrics = %+v, want delay 5 messages 7", m)
	}
}

func TestRunSyncDeterministicOrder(t *testing.T) {
	var trace []string
	handle := func(m Message) []Message {
		trace = append(trace, m.To)
		if m.To == "root" {
			return []Message{{To: "a"}, {To: "b"}}
		}
		if m.To == "a" {
			return []Message{{To: "c"}}
		}
		return nil
	}
	mustSync(t, []Message{{To: "root"}}, handle)
	want := []string{"root", "a", "b", "c"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v (BFS order)", trace, want)
		}
	}
}

func TestRunSyncCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	processed := 0
	handle := func(m Message) []Message {
		processed++
		if processed == 3 {
			cancel()
		}
		return chainHandler(50)(m)
	}
	m, err := RunSync(ctx, []Message{{To: "p0", Payload: 0}}, handle)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if processed != 3 {
		t.Fatalf("processed %d messages after cancel, want 3", processed)
	}
	if m.Messages >= 50 {
		t.Fatalf("cancelled run counted %d messages", m.Messages)
	}
}
