package armada

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"armada/internal/obs"
)

// publishSpread stores n objects evenly across the attribute space so
// range queries have something to deliver.
func publishSpread(t *testing.T, net *Network, n int) {
	t.Helper()
	pubs := make([]Publication, n)
	for i := range pubs {
		pubs[i] = Publication{
			Name:   "obs-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26%10)) + string(rune('0'+i%10)),
			Values: []float64{float64(i%1000) + 0.5},
		}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsPopulated(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(5), WithShortcutTable(64))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 300)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		lo := float64(i * 50)
		if _, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 100}})); err != nil {
			t.Fatal(err)
		}
	}
	mv := net.MetricValues()
	for _, name := range []string{
		"engine_descents_total", "engine_messages_total", "engine_deliveries_total",
		"engine_scheduled_ops_total", "query_delay_vs_bound_count",
	} {
		if mv[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, mv[name])
		}
	}
	if v := mv["delay_bound_violations"]; v != 0 {
		t.Errorf("delay_bound_violations = %d, want 0", v)
	}
	if _, ok := mv["peers"]; ok {
		t.Error("CounterValues must exclude the peers gauge (interval deltas)")
	}
	// The same repeated query must hit the route cache and show there.
	for i := 0; i < 3; i++ {
		if _, err := net.Do(ctx, NewRange([]Range{{Low: 100, High: 200}})); err != nil {
			t.Fatal(err)
		}
	}
	if hits := net.MetricValues()["shortcut_hits_total"]; hits == 0 {
		t.Error("shortcut_hits_total = 0 after repeated identical ranges")
	}

	var sb strings.Builder
	if err := net.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE engine_messages_total counter",
		"# TYPE peers gauge",
		"# TYPE engine_hop_delay histogram",
		"engine_hop_delay_bucket{le=\"+Inf\"}",
		"peers 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestNoRecorderByDefault(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if net.FlightRecorderEnabled() {
		t.Error("FlightRecorderEnabled on a default network")
	}
	if err := net.WriteFlightTrace(&strings.Builder{}); !errors.Is(err, ErrNoRecorder) {
		t.Errorf("WriteFlightTrace error = %v, want ErrNoRecorder", err)
	}
}

// TestFlightRecorderLifecycle drives one full query lifecycle — descent,
// delivery, page cut — through the recorder and round-trips the dump
// through the Chrome trace-event exporter.
func TestFlightRecorderLifecycle(t *testing.T) {
	net, err := NewNetwork(100, WithSeed(7), WithFlightRecorder(4096))
	if err != nil {
		t.Fatal(err)
	}
	if !net.FlightRecorderEnabled() {
		t.Fatal("FlightRecorderEnabled = false")
	}
	publishSpread(t, net, 400)
	ctx := context.Background()
	res, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 900}}, WithLimit(50)))
	if err != nil {
		t.Fatal(err)
	}
	if res.NextOffsetID == "" {
		t.Fatal("want a paged result (non-empty NextOffsetID) to exercise the page cut")
	}

	events := net.obs.flight.Events()
	byKind := map[obs.EventKind]int{}
	var qid uint64
	for _, ev := range events {
		byKind[ev.Kind]++
		if ev.Kind == obs.EvQueryStart {
			qid = ev.QID
		}
	}
	for _, kind := range []obs.EventKind{
		obs.EvQueryStart, obs.EvDescentStep, obs.EvDeliver, obs.EvPageCut, obs.EvQueryEnd,
	} {
		if byKind[kind] == 0 {
			t.Errorf("no %v event recorded", kind)
		}
	}
	for _, ev := range events {
		if ev.QID != qid {
			t.Errorf("event %v carries QID %d, want %d (one query ran)", ev.Kind, ev.QID, qid)
		}
	}
	if got := net.MetricValues()["flight_recorder_events_total"]; got != int64(len(events)) {
		t.Errorf("flight_recorder_events_total = %d, want %d", got, len(events))
	}

	var sb strings.Builder
	if err := net.WriteFlightTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Cat  string          `json:"cat"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(dump.TraceEvents) != len(events) {
		t.Fatalf("trace exports %d events, recorder holds %d", len(dump.TraceEvents), len(events))
	}
	wantID := strconv.FormatUint(qid, 10)
	var begins, ends, hops, cuts int
	for _, te := range dump.TraceEvents {
		switch {
		case te.Ph == "b" && te.Name == "query":
			begins++
			if te.ID != wantID {
				t.Errorf("span begin id = %q, want %q", te.ID, wantID)
			}
		case te.Ph == "e" && te.Name == "query":
			ends++
		case te.Cat == "hop":
			hops++
		case te.Name == "page-cut":
			cuts++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("query span begin/end = %d/%d, want 1/1", begins, ends)
	}
	if hops == 0 || cuts != 1 {
		t.Errorf("hops = %d (want > 0), page cuts = %d (want 1)", hops, cuts)
	}
}

// TestFlightRecorderControlEvents checks that topology-side activity —
// replica repair after a crash — lands in the recorder.
func TestFlightRecorderControlEvents(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(9), WithReplication(2), WithFlightRecorder(4096))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 200)
	// One crash may hit a peer owning nothing; a handful cannot all miss a
	// 200-object store.
	for i := 0; i < 8; i++ {
		if err := net.Fail(net.RandomPeer()); err != nil {
			t.Fatal(err)
		}
	}
	var repairs int
	for _, ev := range net.obs.flight.Events() {
		if ev.Kind == obs.EvRepair {
			repairs++
			if ev.V1 <= 0 {
				t.Errorf("repair event with %d copied objects", ev.V1)
			}
		}
	}
	if repairs == 0 {
		t.Error("no repair events after crashes on a replicated network")
	}
	if got, want := net.MetricValues()["fissione_repairs_total"], int64(repairs); got != want {
		t.Errorf("fissione_repairs_total = %d, recorder saw %d", got, want)
	}
}

// TestDelayBoundConformance asserts the paper's theorem end to end: no
// query ever reaches 2·log₂N hops, at several sizes.
func TestDelayBoundConformance(t *testing.T) {
	ctx := context.Background()
	for _, peers := range []int{50, 200} {
		net, err := NewNetwork(peers, WithSeed(int64(peers)))
		if err != nil {
			t.Fatal(err)
		}
		publishSpread(t, net, 300)
		for i := 0; i < 30; i++ {
			lo := float64((i * 37) % 900)
			if _, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 80}})); err != nil {
				t.Fatal(err)
			}
		}
		mv := net.MetricValues()
		if mv["query_delay_vs_bound_count"] == 0 {
			t.Fatalf("peers=%d: conformance histogram empty", peers)
		}
		if v := mv["delay_bound_violations"]; v != 0 {
			t.Errorf("peers=%d: delay_bound_violations = %d, want 0", peers, v)
		}
	}
}
