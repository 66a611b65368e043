package armada

import (
	"context"
	"testing"
	"time"
)

// TestDiagnosticsDisabledByDefault: a network built without
// WithDiagnostics reports nothing — nil log, not-ok reports — and queries
// run exactly as before.
func TestDiagnosticsDisabledByDefault(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if net.DiagnosticsEnabled() {
		t.Fatal("diagnostics enabled without WithDiagnostics")
	}
	if got := net.SlowQueries(); got != nil {
		t.Errorf("SlowQueries = %v on a plain network, want nil", got)
	}
	if _, ok := net.TailAttributionReport(); ok {
		t.Error("TailAttributionReport ok on a plain network")
	}
	if _, ok := net.SLOStatusReport(); ok {
		t.Error("SLOStatusReport ok on a plain network")
	}
	if _, ok := net.SlowThresholdMs(); ok {
		t.Error("SlowThresholdMs ok on a plain network")
	}
	if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 100, High: 300}})); err != nil {
		t.Fatal(err)
	}
}

// TestDiagnosticsEndToEnd drives a diagnosed network with a threshold low
// enough that every query is slow: the log must fill with classified
// records, the attribution must cover the tail with non-unknown causes,
// and the SLO monitor must have counted every query with zero violations.
func TestDiagnosticsEndToEnd(t *testing.T) {
	net, err := NewNetwork(80, WithSeed(7),
		WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: 32, SlowThreshold: time.Nanosecond}))
	if err != nil {
		t.Fatal(err)
	}
	if !net.DiagnosticsEnabled() {
		t.Fatal("diagnostics not enabled")
	}
	publishSpread(t, net, 200)
	ctx := context.Background()
	const queries = 50
	for i := 0; i < queries; i++ {
		lo := float64(i%40) * 20
		if _, err := net.Do(ctx, NewRange([]Range{{Low: lo, High: lo + 100}})); err != nil {
			t.Fatal(err)
		}
	}

	slow := net.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries logged at a 1ns threshold")
	}
	if len(slow) > 32 {
		t.Fatalf("log holds %d records, capacity is 32", len(slow))
	}
	for _, r := range slow {
		if r.Cause == "unknown" || r.Cause == "" {
			t.Errorf("qid %d unclassified: %+v", r.QID, r)
		}
		if r.Kind != "range" || r.DurationMs <= 0 || len(r.Stages) == 0 {
			t.Errorf("malformed record: %+v", r)
		}
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].QID <= slow[i-1].QID {
			t.Fatalf("log not oldest-first: qid %d after %d", slow[i].QID, slow[i-1].QID)
		}
	}

	thr, ok := net.SlowThresholdMs()
	if !ok || thr <= 0 {
		t.Errorf("threshold = %v, %v; want the fixed 1ns in force", thr, ok)
	}
	ta, ok := net.TailAttributionReport()
	if !ok || ta.Queries != queries {
		t.Fatalf("attribution = %+v, %v; want %d queries", ta, ok, queries)
	}
	if ta.TailQueries > 0 {
		sum := 0.0
		for cause, f := range ta.Causes {
			if cause == "unknown" {
				t.Errorf("unknown cause holds fraction %v", f)
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cause fractions sum to %v, want 1", sum)
		}
	}
	slo, ok := net.SLOStatusReport()
	if !ok || slo.Queries != queries || slo.Violations != 0 {
		t.Errorf("slo = %+v, %v; want %d queries, 0 violations", slo, ok, queries)
	}
}

// TestDiagnosticsAttributesRouteCaches: lookups, plain ranges and session
// pages share one cause for a descent that issuer-side routing state was
// consulted about and did not save — a cold range on a cached network, a
// repeat one of whose owners a split renamed, a session page whose kept tile
// went stale — and a seeded query, or a session's first page on a cache-less
// network, is never one.
func TestDiagnosticsAttributesRouteCaches(t *testing.T) {
	diagnosed := WithDiagnostics(DiagnosticsConfig{SlowThreshold: time.Nanosecond})
	net, err := NewNetwork(80, WithSeed(7), WithShortcutTable(64), diagnosed)
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 200)
	lastCause := func(net *Network) string {
		t.Helper()
		slow := net.SlowQueries()
		if len(slow) == 0 {
			t.Fatal("nothing logged at a 1ns threshold")
		}
		return slow[len(slow)-1].Cause
	}
	q := NewRange([]Range{{Low: 100, High: 400}}, WithIssuer(net.PeerIDs()[3]))
	for _, step := range []struct {
		what string
		miss bool
	}{{"cold", true}, {"warm", false}, {"after a split of a destination", true}} {
		res, err := net.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got := lastCause(net); (got == "shortcut-miss") != step.miss {
			t.Errorf("%s range classified %q; shortcut-miss wanted: %v", step.what, got, step.miss)
		}
		if step.what == "warm" {
			if _, err := net.splitRegion(res.Destinations[1]); err != nil {
				t.Fatal(err)
			}
		}
	}

	plain, err := NewNetwork(80, WithSeed(7), diagnosed)
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, plain, 200)
	sess, err := plain.OpenSession(NewRange([]Range{{Low: 100, High: 400}}, WithLimit(20)))
	if err != nil {
		t.Fatal(err)
	}
	for page := 1; page <= 3; page++ {
		res, err := sess.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := lastCause(plain); (got == "shortcut-miss") != (page == 3) {
			t.Errorf("session page %d classified %q; only the page after the split is a shortcut-miss", page, got)
		}
		if page == 2 {
			if _, err := plain.splitRegion(res.Destinations[len(res.Destinations)-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRegionHeatReport: the heat listing covers every peer, orders by
// deliveries on a controller-less network, and honors the topN cap.
func TestRegionHeatReport(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 100)
	for i := 0; i < 20; i++ {
		if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 500}})); err != nil {
			t.Fatal(err)
		}
	}
	heat := net.RegionHeatReport(0)
	if len(heat) != net.Size() {
		t.Fatalf("heat lists %d regions, network has %d peers", len(heat), net.Size())
	}
	var objects int
	var deliveries int64
	for i, h := range heat {
		if h.Width < 0 {
			t.Errorf("region %s has negative width %d", h.Peer, h.Width)
		}
		objects += h.Objects
		deliveries += h.Deliveries
		if i > 0 && h.Deliveries > heat[i-1].Deliveries {
			t.Fatalf("heat not hottest-first at %d: %d after %d", i, h.Deliveries, heat[i-1].Deliveries)
		}
	}
	if objects != 100 {
		t.Errorf("store sizes sum to %d, want the 100 published", objects)
	}
	if deliveries == 0 {
		t.Error("no deliveries recorded after 20 range queries")
	}
	if top := net.RegionHeatReport(5); len(top) != 5 {
		t.Errorf("topN=5 returned %d rows", len(top))
	}
	if net.Epoch() == 0 {
		t.Error("epoch is 0 on a built network")
	}
}
