// Command armada-load drives a live Armada network with concurrent mixed
// traffic — optionally under churn — and emits a JSON report with per-op
// throughput, latency percentiles and the paper's hop-delay/message
// metrics.
//
// Usage:
//
//	armada-load -scenario mixed                       # a named preset
//	armada-load -scenario mixed -ops 2000 -peers 500  # preset, resized
//	armada-load -list                                 # show the presets
//	armada-load -scenario steady -duration 5s -out report.json
//
// Without -scenario the run is a custom scenario built entirely from the
// flags (workload defaults otherwise):
//
//	armada-load -mix "range=70,publish=15,unpublish=15" -keys zipf \
//	    -churn "join=40,leave=30,fail=10" -peers 300 -ops 4000
//
// Flags given explicitly override the chosen preset's fields.
//
// The report describes one run; it is not a performance gate. The numbers
// a change is judged by come from the repeated, duration-based benchmark
// (bash bench/run.sh, see bench/README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"armada"
	"armada/workload"
)

// liveNet is the network the run drives; the -metrics-addr handlers read
// it (503 until it is built and after it is closed).
var liveNet atomic.Pointer[armada.Network]

// expvarOnce guards the expvar registration: run() executes once per
// process normally but repeatedly under tests, and expvar.Publish panics on
// duplicates.
var expvarOnce sync.Once

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "armada-load:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("armada-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario  = fs.String("scenario", "", "preset scenario name (see -list); empty builds a custom scenario from the flags")
		list      = fs.Bool("list", false, "list preset scenarios and exit")
		peers     = fs.Int("peers", 0, "initial network size")
		ops       = fs.Int("ops", 0, "stop after this many scheduled operations (churn events not counted)")
		duration  = fs.Duration("duration", 0, "stop after this wall-clock time")
		workers   = fs.Int("workers", 0, "executors; an idle one takes the turn to wait for the next arrival, then serves it (default 8)")
		rate      = fs.Float64("rate", 0, "Poisson arrival rate, ops/sec; latency runs from each operation's scheduled arrival (default: the preset's, else 3000; at most 1e9 with churn)")
		seed      = fs.Int64("seed", 0, "random seed")
		attrs     = fs.Int("attrs", 0, "number of [0,1000] attributes (overrides the preset's spaces)")
		replicas  = fs.Int("replicas", 0, "replication degree: each object lives on this many peers (1 = unreplicated)")
		preload   = fs.Int("preload", -1, "objects published before the measured run")
		mix       = fs.String("mix", "", `op mix weights, e.g. "range=70,publish=10,lookup=10,unpublish=5,multi-range=0,top-k=5,flood=0,range-paged=0"`)
		keys      = fs.String("keys", "", "key distribution: uniform|zipf|hotspot")
		rangeFr   = fs.String("range-frac", "", `range width as fraction of the space, "min:max" (e.g. "0.01:0.1")`)
		churn     = fs.String("churn", "", `churn rates/sec, arriving on the operations' schedule, e.g. "join=40,leave=30,fail=10"`)
		shortTab  = fs.Int("shortcut-table", 0, "issuer-side route cache capacity in learned owners; lookups, ranges and session pages whose destinations it knows route in one direct hop per destination (0 = no cache)")
		noShort   = fs.Bool("no-shortcut", false, "drop the scenario's route cache — the descent-baseline ablation (results are byte-identical, only hops and messages move)")
		out       = fs.String("out", "", "write the JSON report to this file (default stdout)")
		traceOut  = fs.String("trace-out", "", "write the log of the slowest queries, each with its hops and page cut, as Chrome trace-event JSON to this file after the run (implies -slow-log 256 when unset)")
		slowLog   = fs.Int("slow-log", 0, fmt.Sprintf("attach the query-diagnostics layer, its log keeping the N slowest queries by queue wait plus service time (0 = none; implied by -slow-out; at most %d); enables the tail_attribution report block and the /debug/armada endpoints", armada.MaxSlowLogCapacity))
		slowOut   = fs.String("slow-out", "", "write the log of the slowest queries and the tail attribution as JSON to this file after the run (implies -slow-log 256 when unset)")
		metricsAd = fs.String("metrics-addr", "", "serve live metrics over HTTP on this address: Prometheus text at /metrics, expvar at /debug/vars")
		pprofAd   = fs.String("pprof-addr", "", "serve net/http/pprof on this address (/debug/pprof/)")
		snapOut   = fs.String("snapshot-out", "", "after building the network, save its topology snapshot to this file (see -snapshot-in)")
		snapIn    = fs.String("snapshot-in", "", "warm-start: restore the network from this snapshot file instead of building it (scenario options still apply; the snapshot fixes size, seed and topology)")
		snapVer   = fs.Bool("snapshot-verify", false, "with -snapshot-in: also build the same network cold and verify the loaded one matches it (topology fingerprint and spot-check query identity)")
		auditSmp  = fs.Int("audit-sample", 0, "post-run audit: structurally check only ~this many evenly-spaced peers instead of all (0 = full audit; the namespace cover is always checked in full)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		printPresets(stdout)
		return nil
	}

	// With no -scenario the base is a neutral custom scenario (workload
	// defaults, 3000 ops) shaped entirely by the flags; a named preset is
	// the base otherwise, with explicit flags overriding its fields.
	sc := workload.Scenario{Name: "custom", Ops: 3000}
	if *scenario != "" {
		var ok bool
		if sc, ok = workload.Preset(*scenario); !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", *scenario)
		}
	}

	var parseErr error
	keep := func(err error) {
		parseErr = errors.Join(parseErr, err)
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "peers":
			sc.Peers = *peers
		case "ops":
			sc.Ops = *ops
		case "duration":
			// The run stops at whichever of -ops / -duration is reached
			// first; pass -ops 0 for a purely time-bounded run.
			sc.Duration = *duration
		case "workers":
			sc.Arrival.Workers = *workers
		case "rate":
			if *rate <= 0 { // refused here, or 0 would fall back to the default
				keep(fmt.Errorf("-rate %v: must be positive", *rate))
			}
			sc.Arrival.RatePerSec = *rate
		case "seed":
			sc.Seed = *seed
		case "attrs":
			// Refused here: 0 would fall back to the default single space,
			// and a negative count cannot size the spaces.
			if *attrs < 1 {
				keep(fmt.Errorf("-attrs %d: must be at least 1", *attrs))
				break
			}
			sc.Attrs = make([]armada.AttributeSpace, *attrs)
			for i := range sc.Attrs {
				sc.Attrs[i] = armada.AttributeSpace{Low: 0, High: 1000}
			}
		case "replicas":
			// Explicit 0/negative must not silently fall back to the
			// workload default (withDefaults rewrites 0 before validation).
			if *replicas < 1 {
				keep(fmt.Errorf("-replicas %d: must be at least 1", *replicas))
			}
			sc.Replicas = *replicas
		case "preload":
			sc.Preload = *preload
		case "mix":
			m, err := parseMix(*mix)
			keep(err)
			sc.Mix = m
		case "keys":
			switch *keys {
			case "uniform":
				sc.Keys = workload.KeyDist{Kind: workload.KeyUniform}
			case "zipf":
				sc.Keys = workload.KeyDist{Kind: workload.KeyZipf, ZipfS: sc.Keys.ZipfS}
			case "hotspot":
				sc.Keys = workload.KeyDist{Kind: workload.KeyHotspot,
					HotFraction: sc.Keys.HotFraction, HotWeight: sc.Keys.HotWeight}
			default:
				keep(fmt.Errorf("unknown key distribution %q", *keys))
			}
		case "range-frac":
			rs, err := parseRangeFrac(*rangeFr)
			keep(err)
			sc.RangeSize = rs
		case "churn":
			c, err := parseChurn(*churn, sc.Churn)
			keep(err)
			sc.Churn = c
		case "shortcut-table":
			if *shortTab < 0 {
				keep(fmt.Errorf("-shortcut-table %d: must be at least 0", *shortTab))
			}
			sc.ShortcutTable = *shortTab
		case "slow-log":
			if *slowLog < 0 {
				keep(fmt.Errorf("-slow-log %d: must be at least 0", *slowLog))
			}
			sc.SlowQueryLog = *slowLog
		}
	})
	if parseErr != nil {
		return parseErr
	}
	if *noShort {
		// Applied after the flag sweep so the ablation always wins, whatever
		// the flag order.
		sc.ShortcutTable = 0
	}
	if (*slowOut != "" || *traceOut != "") && sc.SlowQueryLog == 0 {
		sc.SlowQueryLog = 256
	}

	sc, err := sc.Normalize()
	if err != nil {
		return err
	}
	if *auditSmp < 0 {
		return fmt.Errorf("-audit-sample %d: must be at least 0", *auditSmp)
	}
	if *snapVer && *snapIn == "" {
		return fmt.Errorf("-snapshot-verify requires -snapshot-in")
	}
	if err := startHTTP(*metricsAd, *pprofAd, stderr); err != nil {
		return err
	}
	opts := sc.NetworkOptions()

	runOnce := func() (*workload.Report, error) {
		var (
			net             *armada.Network
			err             error
			buildMs, loadMs float64
		)
		if *snapIn != "" {
			fmt.Fprintf(stderr, "armada-load: scenario %q — warm-starting from snapshot %s (replicas %d, shortcut table %d), preloading %d objects\n",
				sc.Name, *snapIn, sc.Replicas, sc.ShortcutTable, sc.Preload)
			start := time.Now()
			net, err = loadSnapshotFile(*snapIn, opts...)
			loadMs = float64(time.Since(start)) / float64(time.Millisecond)
		} else {
			fmt.Fprintf(stderr, "armada-load: scenario %q — building %d peers (replicas %d, shortcut table %d), preloading %d objects\n",
				sc.Name, sc.Peers, sc.Replicas, sc.ShortcutTable, sc.Preload)
			start := time.Now()
			net, err = armada.NewNetwork(sc.Peers, opts...)
			buildMs = float64(time.Since(start)) / float64(time.Millisecond)
		}
		if err != nil {
			return nil, err
		}
		defer net.Close()
		if *snapOut != "" {
			if err := writeFile(*snapOut, net.SaveSnapshot); err != nil {
				return nil, fmt.Errorf("snapshot save: %w", err)
			}
			fmt.Fprintf(stderr, "armada-load: wrote topology snapshot to %s\n", *snapOut)
		}
		if *snapVer {
			start := time.Now()
			if err := verifyWarmStart(ctx, net, sc); err != nil {
				return nil, fmt.Errorf("snapshot verify: %w", err)
			}
			fmt.Fprintf(stderr, "armada-load: warm-start verified against a cold build in %.0fms (load took %.0fms)\n",
				float64(time.Since(start))/float64(time.Millisecond), loadMs)
		}
		liveNet.Store(net)
		defer liveNet.Store(nil)
		if *traceOut != "" {
			// Deferred so the dump survives run errors and audit failures —
			// the slowest queries' hops are most valuable exactly then.
			defer func() {
				if err := writeFile(*traceOut, net.WriteFlightTrace); err != nil {
					fmt.Fprintln(stderr, "armada-load: trace dump:", err)
				} else {
					fmt.Fprintf(stderr, "armada-load: wrote flight trace to %s\n", *traceOut)
				}
			}()
		}
		if *slowOut != "" {
			// Deferred for the same reason: the slow-query log matters most
			// on the runs that end badly.
			defer func() {
				if err := writeSlowLog(net, *slowOut); err != nil {
					fmt.Fprintln(stderr, "armada-load: slow-query dump:", err)
				} else {
					fmt.Fprintf(stderr, "armada-load: wrote slow-query log to %s\n", *slowOut)
				}
			}()
		}
		runner, err := workload.New(net, sc)
		if err != nil {
			return nil, err
		}
		runner.BuildMs = buildMs
		runner.SnapshotLoadMs = loadMs
		rep, err := runner.Run(ctx)
		if err != nil {
			return nil, err
		}
		// Whatever the run did to the overlay — churn storms included —
		// every structural invariant must still hold (including replica-set
		// consistency on replicated networks). At scale, -audit-sample
		// checks a deterministic subset of peers instead of every one.
		if err := net.AuditSampled(*auditSmp); err != nil {
			return nil, fmt.Errorf("post-run audit: %w", err)
		}
		return rep, nil
	}

	rep, err := runOnce()
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "armada-load: %d ops in %.2fs (%.0f op/s), %d errors, peers %d → %d\n",
		rep.TotalOps, rep.DurationSec, rep.Throughput, rep.TotalErrors, rep.StartPeers, rep.EndPeers)
	return nil
}

// startHTTP binds the optional observability endpoints before anything
// runs, so a bad or taken address fails the command: metricsAddr serves the
// live network's Prometheus text at /metrics and expvar at /debug/vars;
// pprofAddr serves the default mux's /debug/pprof/ handlers. Scrapes before
// the network exists get 503.
func startHTTP(metricsAddr, pprofAddr string, stderr io.Writer) error {
	serve := func(name, addr string, h http.Handler) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		go func() { fmt.Fprintf(stderr, "armada-load: %s server: %v\n", name, http.Serve(ln, h)) }()
		return nil
	}
	if metricsAddr != "" {
		if err := serve("-metrics-addr", metricsAddr, metricsMux(stderr)); err != nil {
			return err
		}
	}
	if pprofAddr != "" {
		return serve("-pprof-addr", pprofAddr, nil) // net/http/pprof registered on the default mux
	}
	return nil
}

// metricsMux serves the live network: Prometheus text at /metrics, expvar
// at /debug/vars and the /debug/armada introspection endpoints — every one
// a view of the network's registry or state, none a copy of it.
func metricsMux(stderr io.Writer) *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("armada", expvar.Func(func() any {
			if n := liveNet.Load(); n != nil {
				return n.MetricValues()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(stderr, "armada-load: debug endpoint write: %v\n", err)
		}
	}
	// live guards a handler: 503 without a live network.
	live := func(h func(http.ResponseWriter, *http.Request, *armada.Network)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			n := liveNet.Load()
			if n == nil {
				http.Error(w, "no live network", http.StatusServiceUnavailable)
				return
			}
			h(w, r, n)
		}
	}
	mux.HandleFunc("/metrics", live(func(w http.ResponseWriter, _ *http.Request, n *armada.Network) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := n.WriteMetrics(w); err != nil {
			fmt.Fprintf(stderr, "armada-load: metrics write: %v\n", err)
		}
	}))
	mux.HandleFunc("/debug/armada/slow", live(func(w http.ResponseWriter, _ *http.Request, n *armada.Network) {
		d, ok := snapSlow(n)
		if !ok {
			http.Error(w, "diagnostics disabled (run with -slow-log)", http.StatusNotFound)
			return
		}
		writeJSON(w, d)
	}))
	mux.HandleFunc("/debug/armada/regions", live(func(w http.ResponseWriter, r *http.Request, n *armada.Network) {
		topN := 0
		if s := r.URL.Query().Get("top"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				topN = v
			}
		}
		writeJSON(w, struct {
			Peers   int                 `json:"peers"`
			Epoch   uint64              `json:"epoch"`
			Regions []armada.RegionHeat `json:"regions"`
		}{n.Size(), n.Epoch(), n.RegionHeatReport(topN)})
	}))
	return mux
}

// loadSnapshotFile restores a network from the snapshot at path, applying
// the scenario's network options on top.
func loadSnapshotFile(path string, opts ...armada.Option) (*armada.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return armada.LoadSnapshot(f, opts...)
}

// verifyWarmStart builds the scenario's network cold and checks the
// warm-started one against it: identical topology fingerprint, and
// byte-identical routing behaviour on a handful of spot-check lookups
// (same issuers, same probe keys — owner, served peer and full cost stats
// must match).
func verifyWarmStart(ctx context.Context, warm *armada.Network, sc workload.Scenario) error {
	cold, err := armada.NewNetwork(sc.Peers, sc.NetworkOptions()...)
	if err != nil {
		return fmt.Errorf("cold build: %w", err)
	}
	defer cold.Close()
	if w, c := warm.TopologyFingerprint(), cold.TopologyFingerprint(); w != c {
		return fmt.Errorf("topology fingerprint mismatch: warm %016x, cold %016x", w, c)
	}
	ids := cold.PeerIDs()
	for i := 0; i < 8; i++ {
		issuer := ids[i*len(ids)/8]
		q := armada.NewLookup(fmt.Sprintf("verify-probe-%d", i), armada.WithIssuer(issuer))
		rw, err1 := warm.Do(ctx, q)
		rc, err2 := cold.Do(ctx, q)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("spot-check query %d: warm %v, cold %v", i, err1, err2)
		}
		if rw.Stats != rc.Stats {
			return fmt.Errorf("spot-check query %d: stats diverge: warm %+v, cold %+v", i, rw.Stats, rc.Stats)
		}
	}
	return nil
}

// slowDump is the -slow-out file shape — the same payload
// /debug/armada/slow serves live.
type slowDump struct {
	// SlowQueries holds the log's records — the run's slowest queries on
	// the client clock — oldest first.
	SlowQueries []armada.SlowQuery `json:"slow_queries"`
	// TailAttribution breaks the run's >p99 queries down by cause.
	TailAttribution armada.TailAttribution `json:"tail_attribution"`
}

// snapSlow gathers the diagnostics layer's state; ok is false when the
// network runs without it.
func snapSlow(net *armada.Network) (slowDump, bool) {
	if !net.DiagnosticsEnabled() {
		return slowDump{}, false
	}
	d := slowDump{SlowQueries: net.SlowQueries()}
	if d.SlowQueries == nil {
		d.SlowQueries = []armada.SlowQuery{} // JSON [] over null
	}
	d.TailAttribution, _ = net.TailAttributionReport()
	return d, true
}

// writeSlowLog dumps the diagnostics layer's slow-query log and tail
// attribution as JSON.
func writeSlowLog(net *armada.Network, path string) error {
	d, ok := snapSlow(net)
	if !ok {
		return fmt.Errorf("network runs without diagnostics")
	}
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMix parses "range=70,publish=10,..." into a Mix.
func parseMix(s string) (workload.Mix, error) {
	var m workload.Mix
	fields := map[string]*float64{
		"publish": &m.Publish, "unpublish": &m.Unpublish, "lookup": &m.Lookup,
		"range": &m.Range, "multi-range": &m.MultiRange, "top-k": &m.TopK, "flood": &m.Flood,
		"range-paged": &m.RangePaged,
	}
	if err := parseWeights(s, fields); err != nil {
		return workload.Mix{}, fmt.Errorf("-mix: %w", err)
	}
	return m, nil
}

// parseChurn parses "join=40,leave=30,fail=10" into a Churn, keeping the
// base's peer guard.
func parseChurn(s string, base workload.Churn) (workload.Churn, error) {
	c := workload.Churn{MinPeers: base.MinPeers}
	fields := map[string]*float64{
		"join": &c.JoinPerSec, "leave": &c.LeavePerSec, "fail": &c.FailPerSec,
	}
	if err := parseWeights(s, fields); err != nil {
		return workload.Churn{}, fmt.Errorf("-churn: %w", err)
	}
	return c, nil
}

func parseWeights(s string, fields map[string]*float64) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", part)
		}
		dst, ok := fields[strings.TrimSpace(key)]
		if !ok {
			return fmt.Errorf("unknown key %q", key)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("%q: %w", part, err)
		}
		*dst = w
	}
	return nil
}

// parseRangeFrac parses "min:max" into a SizeDist.
func parseRangeFrac(s string) (workload.SizeDist, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return workload.SizeDist{}, fmt.Errorf("-range-frac: %q is not min:max", s)
	}
	min, err := strconv.ParseFloat(strings.TrimSpace(lo), 64)
	if err != nil {
		return workload.SizeDist{}, fmt.Errorf("-range-frac: %w", err)
	}
	max, err := strconv.ParseFloat(strings.TrimSpace(hi), 64)
	if err != nil {
		return workload.SizeDist{}, fmt.Errorf("-range-frac: %w", err)
	}
	return workload.SizeDist{MinFrac: min, MaxFrac: max}, nil
}

// printPresets renders the preset table.
func printPresets(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tPEERS\tREPL\tOPS\tATTRS\tKEYS\tCHURN/s (join/leave/fail)\tMIX")
	for _, p := range workload.Presets() {
		attrs := len(p.Attrs)
		if attrs == 0 {
			attrs = 1
		}
		repl := p.Replicas
		if repl == 0 {
			repl = 1
		}
		churn := "-"
		if p.Churn.Enabled() {
			churn = fmt.Sprintf("%g/%g/%g", p.Churn.JoinPerSec, p.Churn.LeavePerSec, p.Churn.FailPerSec)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%s\t%s\n",
			p.Name, p.Peers, repl, p.Ops, attrs, p.Keys.Kind, churn, mixString(p.Mix))
	}
	tw.Flush()
}

func mixString(m workload.Mix) string {
	parts := []string{}
	add := func(name string, w float64) {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, w))
		}
	}
	add("publish", m.Publish)
	add("unpublish", m.Unpublish)
	add("lookup", m.Lookup)
	add("range", m.Range)
	add("multi-range", m.MultiRange)
	add("top-k", m.TopK)
	add("flood", m.Flood)
	add("range-paged", m.RangePaged)
	return strings.Join(parts, ",")
}
