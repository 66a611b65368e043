package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"armada"
	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// The traced pass replays a fixed number of operations, one at a time, on a
// fresh network and on a twin of the layers under the facade, and records a
// span around every call into a layer. The facade's spans are real; the
// twin's are shadows of what the facade's call did inside, so a layer's
// self time is its span minus its children's durations. The pass starts
// from a fresh network rather than the one the measured phase left behind,
// so that its counts do not depend on how many operations the clock let
// that phase run: they repeat exactly between runs of one seed.

// decomposition collects the operations of one kind that were decomposed
// into layers, one value per operation.
type decomposition struct {
	facadeUs, selfUs, namingUs, coreSelfUs, scanUs []float64
	coreSelfNsPerMessage                           []float64
	scanNsPerObject, selfNsPerObject               []float64 // operations with objects
	negativeSelf                                   int
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// add records one decomposed operation: its spans, the facade's and the
// engine's self times, and what it counted.
func (d *decomposition) add(facade, self, naming, coreSelf, scan time.Duration, objects, scanned, messages int) {
	d.facadeUs = append(d.facadeUs, us(facade))
	d.selfUs = append(d.selfUs, us(self))
	d.namingUs = append(d.namingUs, us(naming))
	d.coreSelfUs = append(d.coreSelfUs, us(coreSelf))
	d.scanUs = append(d.scanUs, us(scan))
	if self < 0 {
		d.negativeSelf++
	}
	if messages > 0 {
		d.coreSelfNsPerMessage = append(d.coreSelfNsPerMessage, float64(coreSelf)/float64(messages))
	}
	if scanned > 0 {
		d.scanNsPerObject = append(d.scanNsPerObject, float64(scan)/float64(scanned))
	}
	if objects > 0 {
		d.selfNsPerObject = append(d.selfNsPerObject, float64(self)/float64(objects))
	}
}

// pointProbe and boxProbe are sampled lookups and ranges kept for the
// probes that follow the pass.
type pointProbe struct {
	vals [2]float64
	oid  kautz.Str
}

type boxProbe struct {
	r      fixedRange
	region kautz.Region
	box    naming.Box
}

const maxProbes = 1000

// pass is one traced pass in progress.
type pass struct {
	cfg   runConfig
	w     *workload
	in    *inputs
	attrs int
	out   *outcome
	ctx   context.Context
	live  *armada.Network
	tw    *twin
	gen   *generator
	rng   *rand.Rand // draws the churn events
	size  int        // peers, as churn moves it
	tr    tracer

	// The reference kernel runs between operations here as it does between
	// a client's, and the pass's times are scaled to nominal machine speed.
	kern       *kernel
	lastKernel time.Time
	kernelRuns []float64

	lookups, ranges           decomposition
	coreLookupUs, coreRangeUs []float64 // every shadow descent, cache-served operations' too
	hitUs                     []float64 // facade time of cache-served lookups
	pubSelfUs                 []float64
	fissPubUs, fissUnpubUs    []float64
	fissChurnUs               [3][]float64
	pageUs                    []float64
	lookupProbes              []pointProbe
	rangeProbes               []boxProbe
}

// tracedPass runs the traced pass of one workload and adds its per-layer
// metrics to out. The generator is seeded with seed+1, so the pass replays
// operations the measured phase did not see.
func tracedPass(out *outcome, cfg runConfig, in *inputs) error {
	w := cfg.w
	live, _, err := setUp(w, in, cfg.seed)
	if err != nil {
		return err
	}
	tw, err := newTwin(w, in, cfg.seed)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	if live.TopologyFingerprint() != tw.net.Fingerprint() {
		return fmt.Errorf("twin differs from the live network before the traced pass")
	}
	p := &pass{
		cfg: cfg, w: w, in: in, attrs: len(w.attrs), out: out, ctx: context.Background(),
		live: live, tw: tw, size: w.peers,
		gen:  newGenerator(in, cfg.seed+1, clients),
		rng:  rand.New(rand.NewSource(cfg.seed*977 + 11)),
		tr:   tracer{spans: make([]span, 0, w.tracedOps*6)},
		kern: newKernel(uint64(cfg.seed)),
	}
	runtime.GC()
	p.tr.t0, p.lastKernel = time.Now(), time.Now()
	for i := range w.tracedOps {
		if time.Since(p.lastKernel) >= kernelGap {
			p.kernelRuns = append(p.kernelRuns, float64(p.kern.run()))
			p.lastKernel = time.Now()
		}
		if w.churnEvery > 0 && i > 0 && i%w.churnEvery == 0 {
			p.churn(i)
		}
		o := p.gen.next()
		out.attempted++
		issuer := live.RandomPeer()
		switch o.kind {
		case opLookup:
			p.lookup(i, &o, issuer)
		case opRange:
			p.rangeQuery(i, &o, issuer)
		case opTopK:
			p.topK(i, &o, issuer)
		case opWalk:
			p.walk(i, &o, issuer)
		default:
			p.write(i, &o)
		}
	}
	if live.TopologyFingerprint() != tw.net.Fingerprint() {
		out.fail(fmt.Errorf("twin differs from the live network after the traced pass"))
	}
	if err := verify(live, in, newLiveOracle(in, p.gen), cfg); err != nil {
		out.fail(fmt.Errorf("verification after the traced pass: %w", err))
	}
	if err := p.report(); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := p.tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace workload=%s spans=%d file=%s\n", w.name, len(p.tr.spans), path)
	return nil
}

// mismatch fails the operation: the live network and the twin disagree, or
// one of them returned an error.
func (p *pass) mismatch(op int, format string, args ...any) {
	p.out.fail(fmt.Errorf("traced op %d: %s", op, fmt.Sprintf(format, args...)))
}

// churn applies one topology event to the live network and to the twin.
func (p *pass) churn(i int) {
	kind := p.w.churn.pick(p.rng, p.size)
	var (
		lerr, terr error
		id         string
		tid        kautz.Str
		victim     string
	)
	if kind == churnJoin {
		p.size++
	} else {
		p.size--
		victim = p.live.RandomPeer()
	}
	f, _ := p.tr.timed(spFacadeJoin+spanName(kind), 0, i, func() {
		switch kind {
		case churnJoin:
			id, lerr = p.live.Join()
		case churnLeave:
			lerr = p.live.Leave(victim)
		default:
			lerr = p.live.Fail(victim)
		}
	})
	_, d := p.tr.timed(spFissJoin+spanName(kind), f, i, func() {
		switch kind {
		case churnJoin:
			tid, terr = p.tw.net.Join()
		case churnLeave:
			terr = p.tw.net.Leave(kautz.Str(victim))
		default:
			terr = p.tw.net.FailAbrupt(kautz.Str(victim))
		}
	})
	if lerr != nil || terr != nil || id != string(tid) {
		p.mismatch(i, "%s: live %q %v, twin %q %v", churnNames[kind], id, lerr, tid, terr)
	}
	p.fissChurnUs[kind] = append(p.fissChurnUs[kind], us(d))
}

func (p *pass) lookup(i int, o *op, issuer string) {
	vals := p.in.preload[o.target].vals[:p.attrs]
	var (
		res  *armada.Result
		tres *core.LookupResult
		oid  kautz.Str
		err  error
	)
	f, dF := p.tr.timed(spFacadeDo, 0, i, func() {
		res, err = p.live.Do(p.ctx, armada.Query{Kind: armada.KindLookup, Values: vals, Issuer: issuer})
	})
	if err != nil {
		p.mismatch(i, "lookup: %v", err)
		return
	}
	// The facade hashes the values, then calls the engine.
	_, dH := p.tr.timed(spNamingHash, f, i, func() { oid, err = p.tw.tree.Hash(vals...) })
	c, dC := p.tr.timed(spCoreLookup, f, i, func() {
		tres, err = p.tw.eng.Lookup(p.ctx, kautz.Str(issuer), oid, p.tw.lookupOpts...)
	})
	if err != nil {
		p.mismatch(i, "twin lookup: %v", err)
		return
	}
	scanned := 0
	_, dS := p.tr.timed(spFissScan, c, i, func() {
		scanned = p.tw.scan(kautz.Region{Low: oid, High: oid}, []kautz.Str{tres.Owner}, nil)
	})
	if len(res.Objects) != len(tres.Objects) || res.Owner != string(tres.Owner) {
		p.mismatch(i, "lookup returned %d objects from %q, twin %d from %q", len(res.Objects), res.Owner, len(tres.Objects), tres.Owner)
	}
	p.coreLookupUs = append(p.coreLookupUs, us(dC))
	if res.Stats.DescentsSaved > 0 {
		// Cache-served: not decomposed; the shadow descent's time is
		// reported next to the hit's.
		p.hitUs = append(p.hitUs, us(dF))
	} else {
		if res.Stats.Messages != tres.Stats.Messages || res.Stats.Delay != tres.Stats.Delay {
			p.mismatch(i, "lookup cost %d messages in %d hops, twin %d in %d", res.Stats.Messages, res.Stats.Delay, tres.Stats.Messages, tres.Stats.Delay)
		}
		p.lookups.add(dF, dF-dH-dC, dH, dC-dS, dS, len(res.Objects), scanned, tres.Stats.Messages)
	}
	if len(p.lookupProbes) < maxProbes {
		p.lookupProbes = append(p.lookupProbes, pointProbe{vals: p.in.preload[o.target].vals, oid: oid})
	}
}

func (p *pass) rangeQuery(i int, o *op, issuer string) {
	lo, hi := o.r.lo[:p.attrs], o.r.hi[:p.attrs]
	q := armada.Query{Kind: armada.KindRange, Ranges: o.r.ranges(p.attrs), Issuer: issuer}
	var (
		res    *armada.Result
		tres   *core.RangeResult
		box    naming.Box
		region kautz.Region
		err    error
	)
	f, dF := p.tr.timed(spFacadeDo, 0, i, func() { res, err = p.live.Do(p.ctx, q) })
	if err != nil {
		p.mismatch(i, "range: %v", err)
		return
	}
	c, dC := p.tr.timed(spCoreRange, f, i, func() {
		tres, err = p.tw.eng.RangeQuery(p.ctx, kautz.Str(issuer), lo, hi, p.tw.rangeOpts...)
	})
	if err != nil {
		p.mismatch(i, "twin range: %v", err)
		return
	}
	// The engine maps the bounds to a region itself, so naming is a child
	// of core here, not of the facade as on a lookup.
	_, dN := p.tr.timed(spNamingRegion, c, i, func() {
		box, _ = p.tw.tree.NewBox(lo, hi)
		region, _ = p.tw.tree.QueryRegion(box)
	})
	scanned := 0
	_, dS := p.tr.timed(spFissScan, c, i, func() { scanned = p.tw.scan(region, tres.Destinations, &box) })
	if m := matches(tres); len(res.Objects) != m || m != scanned {
		p.mismatch(i, "range returned %d objects, twin %d, twin scans %d", len(res.Objects), m, scanned)
	}
	p.coreRangeUs = append(p.coreRangeUs, us(dC))
	if res.Stats.DescentsSaved == 0 {
		if res.Stats.Messages != tres.Stats.Messages || res.Stats.Delay != tres.Stats.Delay {
			p.mismatch(i, "range cost %d messages in %d hops, twin %d in %d", res.Stats.Messages, res.Stats.Delay, tres.Stats.Messages, tres.Stats.Delay)
		}
		p.ranges.add(dF, dF-dC, dN, dC-dN-dS, dS, len(res.Objects), scanned, tres.Stats.Messages)
	}
	if len(p.rangeProbes) < maxProbes {
		p.rangeProbes = append(p.rangeProbes, boxProbe{r: o.r, region: region, box: box})
	}
}

func (p *pass) topK(i int, o *op, issuer string) {
	q := armada.Query{Kind: armada.KindTopK, K: p.w.topK, Ranges: o.r.ranges(p.attrs), Issuer: issuer}
	var err error
	p.tr.timed(spFacadeDo, 0, i, func() { _, err = p.live.Do(p.ctx, q) })
	if err != nil {
		p.mismatch(i, "top-k: %v", err)
	}
}

// walk times each page on the facade and compares the walk's object count
// with one range query on the twin.
func (p *pass) walk(i int, o *op, issuer string) {
	sess, err := p.live.OpenSession(armada.Query{Kind: armada.KindRange, Ranges: o.r.ranges(p.attrs), Issuer: issuer, Limit: p.w.pageSize})
	if err != nil {
		p.mismatch(i, "walk: %v", err)
		return
	}
	objects := 0
	for sess.More() && err == nil {
		var res *armada.Result
		_, d := p.tr.timed(spFacadePage, 0, i, func() { res, err = sess.Next(p.ctx) })
		if err == nil {
			p.pageUs = append(p.pageUs, us(d))
			objects += len(res.Objects)
		}
	}
	var tres *core.RangeResult
	if err == nil {
		tres, err = p.tw.eng.RangeQuery(p.ctx, kautz.Str(issuer), o.r.lo[:p.attrs], o.r.hi[:p.attrs], p.tw.rangeOpts...)
	}
	if err != nil {
		p.mismatch(i, "walk: %v", err)
	} else if m := matches(tres); objects != m {
		p.mismatch(i, "walk returned %d objects, twin range %d", objects, m)
	}
}

// write runs a publish or an unpublish.
func (p *pass) write(i int, o *op) {
	vals := o.obj.vals[:p.attrs]
	publish := o.kind == opPublish
	fName, tName := spFacadePublish, spFissPublish
	if !publish {
		fName, tName = spFacadeUnpublish, spFissUnpublish
	}
	var (
		lerr, terr error
		oid        kautz.Str
	)
	f, dF := p.tr.timed(fName, 0, i, func() {
		if publish {
			lerr = p.live.Publish(o.obj.name, vals...)
		} else {
			lerr = p.live.Unpublish(o.obj.name, vals...)
		}
	})
	_, dH := p.tr.timed(spNamingHash, f, i, func() { oid, terr = p.tw.tree.Hash(vals...) })
	obj := fissione.Object{Name: o.obj.name, Values: slices.Clone(vals)}
	_, dP := p.tr.timed(tName, f, i, func() {
		if publish {
			_, terr = p.tw.net.PublishAt(oid, obj)
		} else {
			_, terr = p.tw.net.UnpublishAt(oid, obj)
		}
	})
	if lerr != nil || terr != nil {
		p.mismatch(i, "%s: live %v, twin %v", kindNames[o.kind], lerr, terr)
	}
	if publish {
		p.pubSelfUs = append(p.pubSelfUs, us(dF-dH-dP))
		p.fissPubUs = append(p.fissPubUs, us(dP))
	} else {
		p.fissUnpubUs = append(p.fissUnpubUs, us(dP))
	}
}

// sink keeps probe loops from being optimised away.
var sink int

// nsPerCall times rounds of about calls calls of f, over n inputs, and
// returns the median round's nanoseconds per call.
func nsPerCall(calls, n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	reps := max(1, calls/n)
	rounds := make([]float64, 5)
	for r := range rounds {
		t0 := time.Now()
		for range reps {
			for i := range n {
				f(i)
			}
		}
		rounds[r] = float64(time.Since(t0)) / float64(reps*n)
	}
	return median(rounds)
}

// allocsPerCall counts heap allocations of f over n inputs. ReadMemStats
// stops the world and flushes every allocation cache, so the count is exact
// and, the pass being sequential, repeats between runs of one seed.
func allocsPerCall(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range n {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// report turns the pass's spans into per-layer metrics, runs the probes and
// prints each decomposed kind's shares.
func (p *pass) report() error {
	res, w, tw, attrs := p.out.res, p.w, p.tw, p.attrs
	scale := speedScale(p.kernelRuns)
	p50 := func(name string, vs []float64) {
		if len(vs) > 0 {
			res.set(name, median(vs)*scale, len(vs))
		}
	}
	p50("core.lookup_us_p50", p.coreLookupUs)
	p50("core.range_us_p50", p.coreRangeUs)
	p50("core.self_ns_per_message", append(slices.Clone(p.lookups.coreSelfNsPerMessage), p.ranges.coreSelfNsPerMessage...))
	p50("fissione.scan_us_p50", p.ranges.scanUs)
	p50("fissione.scan_ns_per_object", p.ranges.scanNsPerObject)
	p50("fissione.publish_us_p50", p.fissPubUs)
	p50("fissione.unpublish_us_p50", p.fissUnpubUs)
	p50("facade.lookup_self_us_p50", p.lookups.selfUs)
	p50("facade.range_self_us_p50", p.ranges.selfUs)
	p50("facade.range_self_ns_per_object", p.ranges.selfNsPerObject)
	p50("facade.publish_self_us_p50", p.pubSelfUs)
	p50("facade.page_us_p50", p.pageUs)
	for k, name := range churnNames {
		p50("fissione."+name+"_us_p50", p.fissChurnUs[k])
	}
	if n := len(p.lookups.facadeUs) + len(p.ranges.facadeUs); n > 0 {
		res.set("trace.negative_self_ratio", float64(p.lookups.negativeSelf+p.ranges.negativeSelf)/float64(n), n)
	}
	// Tracing overhead: the traced facade median over the untraced one of
	// the measured phase, on the workload's commonest query kind.
	traced, measured := append(slices.Clone(p.lookups.facadeUs), p.hitUs...), res["lookup_p50_us"]
	if w.mix[opRange] > w.mix[opLookup] {
		traced, measured = p.ranges.facadeUs, res["range_p50_us"]
	}
	if len(traced) > 0 && measured.v > 0 {
		res.set("trace.overhead_ratio", median(traced)*scale/measured.v, len(traced))
	}

	// Probes: nanosecond-scale functions timed in batches over the sampled
	// queries, and allocation counts of whole queries.
	points, boxes := p.lookupProbes, p.rangeProbes
	const depth = 12 // a prefix about as long as a peer identifier
	probeNs := func(n int, f func(i int)) float64 { return nsPerCall(p.cfg.sized(probeCalls, 100), n, f) * scale }
	res.set("naming.hash_ns", probeNs(len(points), func(i int) {
		id, _ := tw.tree.Hash(points[i].vals[:attrs]...)
		sink += len(id)
	}), len(points))
	res.set("fissione.owner_of_ns", probeNs(len(points), func(i int) {
		id, _ := tw.net.OwnerOf(points[i].oid)
		sink += len(id)
	}), len(points))
	res.set("naming.region_ns", probeNs(len(boxes), func(i int) {
		r := &boxes[i].r
		box, _ := tw.tree.NewBox(r.lo[:attrs], r.hi[:attrs])
		region, _ := tw.tree.QueryRegion(box)
		sink += len(region.Low)
	}), len(boxes))
	res.set("naming.intersects_ns", probeNs(len(boxes), func(i int) {
		if ok, _ := tw.tree.IntersectsPrefix(boxes[i].region.Low[:depth], boxes[i].box); ok {
			sink++
		}
	}), len(boxes))
	res.set("kautz.split_ns", probeNs(len(boxes), func(i int) {
		sink += len(boxes[i].region.SplitByFirstSymbol())
	}), len(boxes))
	res.set("kautz.contains_prefix_ns", probeNs(len(boxes), func(i int) {
		if boxes[i].region.ContainsPrefix(boxes[i].region.Low[:depth]) {
			sink++
		}
	}), len(boxes))

	issuers := p.live.PeerIDs()
	issuerOf := func(i int) string { return issuers[i*7919%len(issuers)] }
	lookupQs := make([]armada.Query, len(points))
	for i := range lookupQs {
		lookupQs[i] = armada.Query{Kind: armada.KindLookup, Values: points[i].vals[:attrs], Issuer: issuerOf(i)}
	}
	rangeQs := make([]armada.Query, len(boxes))
	for i := range rangeQs {
		rangeQs[i] = armada.Query{Kind: armada.KindRange, Ranges: boxes[i].r.ranges(attrs), Issuer: issuerOf(i)}
	}
	res.set("core.allocs_per_lookup", allocsPerCall(len(points), func(i int) {
		if r, err := tw.eng.Lookup(p.ctx, kautz.Str(lookupQs[i].Issuer), points[i].oid, tw.lookupOpts...); err == nil {
			sink += len(r.Objects)
		}
	}), len(points))
	res.set("core.allocs_per_range", allocsPerCall(len(boxes), func(i int) {
		r := &boxes[i].r
		if rr, err := tw.eng.RangeQuery(p.ctx, kautz.Str(rangeQs[i].Issuer), r.lo[:attrs], r.hi[:attrs], tw.rangeOpts...); err == nil {
			sink += len(rr.Runs)
		}
	}), len(boxes))
	doAllocs := func(net *armada.Network, qs []armada.Query) float64 {
		return allocsPerCall(len(qs), func(i int) {
			if r, err := net.Do(p.ctx, qs[i]); err == nil {
				sink += len(r.Objects)
			}
		})
	}
	res.set("facade.allocs_per_lookup", doAllocs(p.live, lookupQs), len(points))
	res.set("facade.allocs_per_range", doAllocs(p.live, rangeQs), len(boxes))

	if w.obsProbe {
		// What turning observability on costs: the sampled lookups replayed
		// on the plain network and on one built with the flight recorder
		// and the diagnostics layer attached.
		on, _, err := setUp(w, p.in, p.cfg.seed, armada.WithFlightRecorder(65536), armada.WithDiagnostics(armada.DiagnosticsConfig{}))
		if err != nil {
			return fmt.Errorf("observability probe: %w", err)
		}
		lookupP50 := func(net *armada.Network) float64 {
			ds := make([]float64, len(lookupQs))
			for i, q := range lookupQs {
				t0 := time.Now()
				r, err := net.Do(p.ctx, q)
				ds[i] = float64(time.Since(t0))
				if err == nil {
					sink += len(r.Objects)
				}
			}
			return median(ds)
		}
		lookupP50(on) // the plain network is warm from the pass; warm this one too
		if off := lookupP50(p.live); off > 0 {
			res.set("obs.on_overhead_ratio", lookupP50(on)/off, len(lookupQs))
		}
		res.set("obs.on_allocs_per_lookup", doAllocs(on, lookupQs), len(lookupQs))
	}

	for _, k := range []struct {
		kind string
		d    *decomposition
	}{{"lookup", &p.lookups}, {"range", &p.ranges}} {
		if len(k.d.facadeUs) == 0 {
			continue
		}
		f := median(k.d.facadeUs)
		fmt.Printf("shares workload=%s kind=%s n=%d facade.do_p50_us=%.2f of which (p50s) facade_self=%.1f%% naming=%.1f%% core_self=%.1f%% fissione.scan=%.1f%%\n",
			w.name, k.kind, len(k.d.facadeUs), f*scale, 100*median(k.d.selfUs)/f, 100*median(k.d.namingUs)/f,
			100*median(k.d.coreSelfUs)/f, 100*median(k.d.scanUs)/f)
	}
	return nil
}
