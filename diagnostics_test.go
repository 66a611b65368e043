package armada

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 100, High: 300}})); err != nil {
		t.Fatal(err)
	}
}

// TestDiagnosticsEndToEnd plants one cause in a diagnosed network: two of
// 50 ranges report a 50 ms queue wait, and a log of 32 keeps the slowest.
// Both planted queries must be in it, named queue-wait, and the tail
// attribution must put the whole tail on queue-wait; the log must be
// oldest-first and well-formed, the registry must have counted every query
// with zero violations, and neither a burn-rate gauge nor a slow-threshold
// metric is left beside the violation counter.
func TestDiagnosticsEndToEnd(t *testing.T) {
	net, err := NewNetwork(80, WithSeed(7), WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: 32}))
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
		q := NewRange([]Range{{Low: lo, High: lo + 100}})
		if i == 17 || i == 41 {
			q.QueueWait = 50 * time.Millisecond
		}
		if _, err := net.Do(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	slow := net.SlowQueries()
	if len(slow) != 32 {
		t.Fatalf("log holds %d records, want its capacity 32 of %d queries", len(slow), queries)
	}
	var planted []uint64
	for _, r := range slow {
		if r.QueueWaitMs > 0 {
			planted = append(planted, r.QID)
			if r.Cause != "queue-wait" {
				t.Errorf("qid %d waited %v ms and was named %q", r.QID, r.QueueWaitMs, r.Cause)
			}
		}
		if r.Kind != "range" || r.DurationMs <= 0 || len(r.Stages) == 0 {
			t.Errorf("malformed record: %+v", r)
		}
	}
	if len(planted) != 2 || planted[0] != 18 || planted[1] != 42 {
		t.Errorf("log kept planted qids %v, want [18 42]", planted)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].QID <= slow[i-1].QID {
			t.Fatalf("log not oldest-first: qid %d after %d", slow[i].QID, slow[i-1].QID)
		}
	}

	ta, ok := net.TailAttributionReport()
	if !ok || ta.Queries != queries {
		t.Fatalf("attribution = %+v, %v; want %d queries", ta, ok, queries)
	}
	if ta.TailQueries == 0 || ta.Causes["queue-wait"] != 1 {
		t.Errorf("tail attribution %+v, want the whole tail on queue-wait", ta)
	}
	m := net.MetricValues()
	if m["diag_queries_total"] != queries || m["delay_bound_violations"] != 0 {
		t.Errorf("registry counted %d queries, %d violations; want %d, 0", m["diag_queries_total"], m["delay_bound_violations"], queries)
	}
	for name := range m {
		if strings.HasPrefix(name, "slo_") || strings.HasPrefix(name, "diag_slow_") {
			t.Errorf("registry still carries %s", name)
		}
	}
}

// plantedLog is the log capacity of TestPlantedCauses' networks: at least
// any row's query count, so every query's cause can be read.
const plantedLog = 4096

// plantedQuery is one query of a TestPlantedCauses row: run on net, in
// order. A warm-up query is neither planted nor a control.
type plantedQuery struct {
	net     *Network
	q       Query
	planted bool
	warm    bool
}

// plantedNet builds a diagnosed 200-peer network holding 600 objects, the
// same topology for every seed-7 build.
func plantedNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	opts = append([]Option{WithSeed(7), WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: plantedLog})}, opts...)
	net, err := NewNetwork(200, opts...)
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 600)
	return net
}

// narrowBox is a 2-wide range at lo: one or two destination owners.
func narrowBox(lo float64, opts ...QueryOption) Query {
	return NewRange([]Range{{Low: lo, High: lo + 2}}, opts...)
}

// TestPlantedCauses holds every cause the classifier names to a planted
// run: each row plants its cause into some queries and runs the same query
// shape without the plant as controls. A cause must name at least 90% of
// its planted queries and at most 5% of its controls. The queue-wait row
// also needs at least 90% of the tail attribution on queue-wait: the tail is
// ranked by the time the caller waited, queue wait included. A cause with
// no row here failed one and is gone: deep-descent named a one-hop descent
// as often as an eight-hop one, and replica-redirect named no round-robin
// read at three replicas.
func TestPlantedCauses(t *testing.T) {
	rows := []struct {
		cause string
		plant func(t *testing.T) []plantedQuery
	}{
		{"queue-wait", func(t *testing.T) []plantedQuery {
			// 1 in 50 queries waited 5 ms before it started.
			net := plantedNet(t)
			var qs []plantedQuery
			for i := 0; i < 500; i++ {
				planted, wait := i%50 == 49, time.Duration(0)
				if planted {
					wait = 5 * time.Millisecond
				}
				qs = append(qs, plantedQuery{net: net, q: narrowBox(float64(i%97)*10, WithQueueWait(wait)), planted: planted})
			}
			return qs
		}},
		{"shortcut-miss", func(t *testing.T) []plantedQuery {
			// A route cache warmed on boxes below 500; the planted boxes lie
			// above it, far enough apart to share no owner, and each runs
			// once, cold. The controls repeat the warmed boxes.
			net := plantedNet(t, WithShortcutTable(256))
			var qs []plantedQuery
			for i := 0; i < 20; i++ {
				qs = append(qs, plantedQuery{net: net, q: narrowBox(float64(25*i + 3)), warm: true})
			}
			for i := 0; i < 20; i++ {
				qs = append(qs,
					plantedQuery{net: net, q: narrowBox(float64(500 + 25*i + 3)), planted: true},
					plantedQuery{net: net, q: narrowBox(float64(25*i + 3))})
			}
			return qs
		}},
		{"hot-region", func(t *testing.T) []plantedQuery {
			// One owner holds 20,000 objects at value 700 under the box;
			// the controls run the same box from the same issuers on the
			// same network without them. Every peer issues one of each.
			hot, plain := plantedNet(t), plantedNet(t)
			pubs := make([]Publication, 20000)
			for i := range pubs {
				pubs[i] = Publication{Name: fmt.Sprintf("hot-%d", i), Values: []float64{700}}
			}
			if err := hot.PublishBatch(pubs); err != nil {
				t.Fatal(err)
			}
			var qs []plantedQuery
			for _, id := range plain.PeerIDs() {
				qs = append(qs,
					plantedQuery{net: hot, q: narrowBox(699, WithIssuer(id)), planted: true},
					plantedQuery{net: plain, q: narrowBox(699, WithIssuer(id))})
			}
			return qs
		}},
	}
	for _, row := range rows {
		t.Run(row.cause, func(t *testing.T) {
			qs := row.plant(t)
			seq := map[*Network]uint64{} // a network's qids count its queries from 1
			qids := make([]uint64, len(qs))
			for i, pq := range qs {
				if _, err := pq.net.Do(context.Background(), pq.q); err != nil {
					t.Fatal(err)
				}
				seq[pq.net]++
				qids[i] = seq[pq.net]
			}
			if row.cause == "queue-wait" {
				ta, _ := qs[0].net.TailAttributionReport()
				if f := ta.Causes["queue-wait"]; f < 0.9 {
					t.Errorf("tail attribution puts %.2f of %d tail queries on queue-wait, want ≥ 0.9: %v", f, ta.TailQueries, ta.Causes)
				}
			}
			causes := map[*Network]map[uint64]string{}
			for net, n := range seq {
				log := net.SlowQueries()
				if uint64(len(log)) != n {
					t.Fatalf("log holds %d of %d queries", len(log), n)
				}
				causes[net] = map[uint64]string{}
				for _, r := range log {
					causes[net][r.QID] = r.Cause
				}
			}
			var named, planted, falsely, controls int
			for i, pq := range qs {
				hit := causes[pq.net][qids[i]] == row.cause
				switch {
				case pq.warm:
				case pq.planted:
					planted++
					if hit {
						named++
					}
				default:
					controls++
					if hit {
						falsely++
					}
				}
			}
			t.Logf("%s named %d of %d planted queries, %d of %d controls", row.cause, named, planted, falsely, controls)
			if 10*named < 9*planted || 20*falsely > controls {
				t.Errorf("%s named %d of %d planted queries (want ≥ 90%%) and %d of %d controls (want ≤ 5%%)",
					row.cause, named, planted, falsely, controls)
			}
		})
	}
}

// TestDiagnosticsAttributesRouteCaches: lookups, plain ranges and session
// pages share one cause for a descent that issuer-side routing state was
// consulted about and did not save — a cold range on a cached network, a
// repeat one of whose owners a split renamed, a session page whose kept tile
// went stale — and a seeded query, or a session's first page on a cache-less
// network, is never one.
func TestDiagnosticsAttributesRouteCaches(t *testing.T) {
	diagnosed := WithDiagnostics(DiagnosticsConfig{})
	net, err := NewNetwork(80, WithSeed(7), WithShortcutTable(64), diagnosed)
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 200)
	lastCause := func(net *Network) string {
		t.Helper()
		slow := net.SlowQueries()
		if len(slow) == 0 {
			t.Fatal("nothing logged")
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
			if _, _, err := net.splitRegion(res.Destinations[1]); err != nil {
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
			if _, _, err := plain.splitRegion(res.Destinations[len(res.Destinations)-1]); err != nil {
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

// TestDelayBoundCountsTheBound: the paper's bound is strict, Delay < 2·log₂N,
// so a query whose delay reaches it exactly counts as a violation. At 16
// peers the bound is 8 hops.
func TestDelayBoundCountsTheBound(t *testing.T) {
	net, err := NewNetwork(16, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for _, c := range []struct {
		delay int
		want  int64
	}{{7, 0}, {8, 1}, {9, 2}} {
		if bound := net.noteQuery(Stats{Delay: c.delay}); bound != 8 {
			t.Fatalf("bound %v at 16 peers, want 8", bound)
		}
		if got := net.MetricValues()["delay_bound_violations"]; got != c.want {
			t.Fatalf("after a query of delay %d: %d violations, want %d", c.delay, got, c.want)
		}
	}
}

// TestAuditFailsOnDelayBoundViolation: the delay bound is an invariant the
// audit checks, not a rate to watch. A clean network passes both audits; one
// counted violation fails both with ErrDelayBound, whatever the sample.
func TestAuditFailsOnDelayBoundViolation(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	publishSpread(t, net, 100)
	if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 100, High: 300}})); err != nil {
		t.Fatal(err)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("Audit on a clean network: %v", err)
	}
	if err := net.AuditSampled(8); err != nil {
		t.Fatalf("AuditSampled on a clean network: %v", err)
	}
	net.obs.delayViol.Inc()
	if err := net.Audit(); !errors.Is(err, ErrDelayBound) {
		t.Errorf("Audit after a violation = %v, want ErrDelayBound", err)
	}
	for _, sample := range []int{0, 8} {
		if err := net.AuditSampled(sample); !errors.Is(err, ErrDelayBound) {
			t.Errorf("AuditSampled(%d) after a violation = %v, want ErrDelayBound", sample, err)
		}
	}
}

// TestTraceUnderDiagnostics: the collector hands every event on to the
// caller's trace sink, so a seeded lookup, range and session walk show the
// sink the same hops on a diagnosed network as on its undiagnosed twin, and
// never a completed scan — the query's logged record holds the sink's hops
// plus at least one scan, so a sink handed scans would hold more. A nil
// trace observes nothing and runs, diagnosed or not.
func TestTraceUnderDiagnostics(t *testing.T) {
	build := func(opts ...Option) *Network {
		net, err := NewNetwork(150, append(opts, WithSeed(53))...)
		if err != nil {
			t.Fatal(err)
		}
		publishSpread(t, net, 300)
		return net
	}
	plain, diagnosed := build(), build(WithDiagnostics(DiagnosticsConfig{SlowLogCapacity: 64}))
	ctx := context.Background()
	issuer := plain.PeerIDs()[7]
	box := []Range{{Low: 200, High: 260}}
	queries := []struct {
		name string
		run  func(net *Network, trace QueryOption) error
	}{
		{"lookup", func(net *Network, trace QueryOption) error {
			_, err := net.Do(ctx, NewLookup("obs-c-02", WithIssuer(issuer), trace))
			return err
		}},
		{"range", func(net *Network, trace QueryOption) error {
			_, err := net.Do(ctx, NewRange(box, WithIssuer(issuer), trace))
			return err
		}},
		{"session", func(net *Network, trace QueryOption) error {
			sess, err := net.OpenSession(NewRange(box, WithIssuer(issuer), WithLimit(10), trace))
			if err != nil {
				return err
			}
			defer sess.Close()
			for range 2 { // the descended first page, then a positional one
				if _, err := sess.Next(ctx); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, q := range queries {
		logged := len(diagnosed.SlowQueries())
		var sink [2][]Hop
		for i, net := range []*Network{plain, diagnosed} {
			if err := q.run(net, WithTrace(func(h Hop) { sink[i] = append(sink[i], h) })); err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
		}
		if len(sink[0]) == 0 || !slices.Equal(sink[0], sink[1]) {
			t.Fatalf("%s: the sink saw\n%v\nundiagnosed, and\n%v\ndiagnosed", q.name, sink[0], sink[1])
		}
		var noted []Hop
		scans := 0
		for _, r := range diagnosed.SlowQueries()[logged:] {
			if r.HopsDropped != 0 {
				t.Fatalf("%s: record %d dropped %d hops", q.name, r.QID, r.HopsDropped)
			}
			for _, h := range r.Hops {
				if h.Kind == "scan" {
					scans++
					continue
				}
				noted = append(noted, Hop{From: h.From, To: h.To, Depth: h.Depth, Remaining: h.Remaining})
			}
		}
		if scans == 0 || !slices.Equal(noted, sink[1]) {
			t.Fatalf("%s: the records hold %d scans and the other hops\n%v\nthe sink saw\n%v", q.name, scans, noted, sink[1])
		}
	}
	for _, net := range []*Network{plain, diagnosed} {
		if _, err := net.Do(ctx, NewRange(box, WithIssuer(issuer), WithTrace(nil))); err != nil {
			t.Fatal(err)
		}
	}
}
