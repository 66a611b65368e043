package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"armada"
	"armada/internal/stats"
)

// Runner executes one Scenario against a live network.
type Runner struct {
	net *armada.Network
	sc  Scenario

	// OnSnapshot, when non-nil, observes every interval snapshot as it is
	// taken (progress reporting). It is called from the snapshot
	// goroutine.
	OnSnapshot func(Snapshot)

	// BuildMs and SnapshotLoadMs, when set by the caller before Run, are
	// copied into the report's memory block: the wall-clock cost of
	// building the network cold or restoring it from a warm-start
	// snapshot. Execute fills BuildMs itself; armada-load fills whichever
	// path it took.
	BuildMs        float64
	SnapshotLoadMs float64
}

// New builds a Runner for the scenario (defaults filled, then validated)
// against the given network, which must be configured with as many
// attributes as the scenario declares and with the scenario's replication
// degree.
func New(net *armada.Network, sc Scenario) (*Runner, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if len(sc.Attrs) != net.Attributes() {
		return nil, fmt.Errorf("%w: scenario declares %d attributes, network has %d",
			ErrBadScenario, len(sc.Attrs), net.Attributes())
	}
	if sc.Replicas != net.Replicas() {
		return nil, fmt.Errorf("%w: scenario declares %d replicas, network has %d",
			ErrBadScenario, sc.Replicas, net.Replicas())
	}
	if ss, ok := net.ShortcutTableStats(); (sc.ShortcutTable > 0) != ok ||
		(ok && ss.Capacity != sc.ShortcutTable) {
		return nil, fmt.Errorf("%w: scenario declares a shortcut table of %d, network has %d",
			ErrBadScenario, sc.ShortcutTable, ss.Capacity)
	}
	if _, ok := net.MetricValues()["loadctl_auto_splits_total"]; ok != sc.LoadControl {
		return nil, fmt.Errorf("%w: scenario load control %v, network load control %v",
			ErrBadScenario, sc.LoadControl, ok)
	}
	if ok := net.DiagnosticsEnabled(); ok != (sc.SlowQueryLog > 0) {
		return nil, fmt.Errorf("%w: scenario slow-query log %d, network diagnostics %v",
			ErrBadScenario, sc.SlowQueryLog, ok)
	}
	return &Runner{net: net, sc: sc}, nil
}

// Execute builds the scenario's network (sc.Peers peers, sc.Attrs spaces,
// sc.Seed, sc.Replicas), then runs the scenario on it — the one-call entry
// point for callers with no network of their own (armada-load builds or
// loads its own, then calls New and Run).
func Execute(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	buildStart := time.Now()
	net, err := armada.NewNetwork(sc.Peers, sc.NetworkOptions()...)
	if err != nil {
		return nil, err
	}
	buildMs := float64(time.Since(buildStart)) / float64(time.Millisecond)
	defer net.Close()
	r, err := New(net, sc)
	if err != nil {
		return nil, err
	}
	r.BuildMs = buildMs
	return r.Run(ctx)
}

// Run preloads the scenario's objects, then drives the workload until the
// stop condition (op count or duration) is reached, and returns the
// Report. Cancelling ctx aborts the run with ctx's error; the scenario's
// own Duration expiring is a normal completion.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := &r.sc

	// Measure the data plane's settled footprint before preload pumps
	// workload objects into it: live heap after a forced collection, per
	// peer. This is the number the scale budget (CI) gates on.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mem := &MemoryReport{
		HeapAllocBytes: ms.HeapAlloc,
		BuildMs:        r.BuildMs,
		SnapshotLoadMs: r.SnapshotLoadMs,
	}
	if size := r.net.Size(); size > 0 {
		mem.BytesPerPeer = float64(ms.HeapAlloc) / float64(size)
	}

	pool := &keyPool{}
	if err := r.preload(pool); err != nil {
		return nil, fmt.Errorf("workload: preload: %w", err)
	}

	// runCtx stops the traffic; bgCtx keeps churn and snapshots running
	// until the executors have drained.
	runCtx := ctx
	if sc.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, sc.Duration)
		defer cancel()
	}
	bgCtx, stopBG := context.WithCancel(ctx)
	defer stopBG()

	startMetrics := r.net.MetricValues()
	coll := newCollector(r.sc.Replicas > 1, startMetrics)
	startPeers := r.net.Size()
	startLoads := make(map[string]int64)
	for _, h := range r.net.RegionHeatReport(0) {
		startLoads[h.Peer] = h.Deliveries
	}
	start := time.Now()

	var bg sync.WaitGroup
	if sc.Churn.Enabled() {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.churn(bgCtx, coll)
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		r.snapshots(bgCtx, start, coll)
	}()

	r.serve(runCtx, pool, coll)
	elapsed := time.Since(start)
	stopBG()
	bg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("workload: run aborted: %w", err)
	}
	coll.takeSnapshot(elapsed, r.net.Size(), r.net.MetricValues()) // final snapshot, always present
	rep := r.report(elapsed, startPeers, coll)
	rep.Metrics = metricsDelta(startMetrics, r.net.MetricValues(), false)
	rep.DeliverySkew = deliverySkew(startLoads, r.net.RegionHeatReport(0))
	if ta, ok := r.net.TailAttributionReport(); ok {
		rep.TailAttribution = &ta
	}
	rep.Memory = mem
	rep.Env = &EnvReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	return rep, nil
}

// skewTopN caps the delivery-skew hottest-peers list.
const skewTopN = 5

// deliverySkew computes the run's per-peer delivery balance: each peer
// present at run end contributes its delivery-count growth since run start
// (peers created mid-run contribute their whole count — their counters
// started at zero, or rode along a rename, either way their load belongs
// to the run's hot regions).
func deliverySkew(start map[string]int64, end []armada.RegionHeat) *SkewReport {
	if len(end) == 0 {
		return nil
	}
	deltas := make([]int64, 0, len(end))
	hot := make([]HotPeer, 0, len(end))
	var total int64
	for _, h := range end {
		d := max(0, h.Deliveries-start[h.Peer])
		deltas = append(deltas, d)
		hot = append(hot, HotPeer{Peer: h.Peer, Deliveries: d})
		total += d
	}
	rep := &SkewReport{MeanDeliveries: float64(total) / float64(len(deltas))}
	if total == 0 {
		return rep
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	p99 := deltas[(99*(len(deltas)-1)+50)/100]
	rep.MaxOverMean = float64(deltas[len(deltas)-1]) / rep.MeanDeliveries
	rep.P99OverMean = float64(p99) / rep.MeanDeliveries
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Deliveries != hot[j].Deliveries {
			return hot[i].Deliveries > hot[j].Deliveries
		}
		return hot[i].Peer < hot[j].Peer
	})
	hot = hot[:min(len(hot), skewTopN)]
	for i := range hot {
		hot[i].Share = float64(hot[i].Deliveries) / float64(total)
	}
	rep.HotPeers = hot
	return rep
}

// serve runs Workers executors until Ops arrivals are served or ctx ends.
// They take turns as the arrival clock through a one-slot channel (a mutex
// starves: each Unlock yields the P to a waiter before the releaser serves
// its arrival). An idle executor takes the turn, awaits the next arrival of
// the absolute Poisson schedule, passes the turn on and serves the arrival;
// while all are busy, arrivals fall due and wait. An arrival taken that
// fell due by the stop is served: the first holder to find the run stopped
// serves the one it took, counts those due behind it as dropped — at the
// schedule's rate, not drawn one by one, so the stop costs the same at any
// backlog — and closes turn.
func (r *Runner) serve(ctx context.Context, pool *keyPool, coll *collector) {
	sc := &r.sc
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x9e3779b9))
	mean := float64(time.Second) / sc.Arrival.RatePerSec
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() * mean) }
	n, next := 0, time.Now().Add(gap()) // arrivals taken, and the next one: the holder's alone
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	var executors sync.WaitGroup
	for w := 0; w < sc.Arrival.Workers; w++ {
		executors.Add(1)
		go func(id int) {
			defer executors.Done()
			smp := newSampler(sc, sc.Seed+int64(id)*7919+1)
			for range turn {
				at := next
				if sc.Ops > 0 && n >= sc.Ops || !await(ctx, &coll.dispatchLate, at) {
					close(turn)
					continue
				}
				n, next = n+1, at.Add(gap())
				if ctx.Err() == nil {
					turn <- struct{}{}
				} else {
					d := max(0, 1+int(math.Floor(float64(stopAt(ctx).Sub(next))/mean)))
					if sc.Ops > 0 {
						d = min(d, sc.Ops-n)
					}
					coll.dropped.Add(int64(d))
					close(turn)
				}
				r.execOp(ctx, smp, pool, coll, at)
			}
		}(w)
	}
	executors.Wait()
}

// await waits for the arrival at at and reports whether it fell due by the
// stop: false if ctx ended before at. An arrival already due is backlog
// and goes at once. Otherwise await sleeps until a millisecond before at —
// the netpoller sleeps in whole milliseconds, so a timer alone fires up to
// ~10 ms late — then yields until at, and samples the lateness (release
// minus at) into late.
func await(ctx context.Context, late *stats.SafeSample, at time.Time) bool {
	inRun := func() bool { return ctx.Err() == nil || !at.After(stopAt(ctx)) }
	if wait := time.Until(at); wait > time.Millisecond {
		select {
		case <-ctx.Done():
		case <-time.After(wait - time.Millisecond):
		}
	}
	if now := time.Now(); now.Before(at) && inRun() {
		for ; now.Before(at); now = time.Now() {
			runtime.Gosched()
		}
		late.Add(float64(now.Sub(at)) / float64(time.Millisecond))
	}
	return inRun()
}

// stopAt is when ctx ended: its deadline if that has passed, else now.
func stopAt(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok && time.Now().After(d) {
		return d
	}
	return time.Now()
}

// preload publishes the scenario's initial objects in one batch and seeds
// the unpublish pool with them.
func (r *Runner) preload(pool *keyPool) error {
	if r.sc.Preload == 0 {
		return nil
	}
	smp := newSampler(&r.sc, r.sc.Seed*31+7)
	pubs := make([]armada.Publication, r.sc.Preload)
	for i := range pubs {
		rec := pubRec{name: pool.nextName(), values: smp.values()}
		pubs[i] = armada.Publication{Name: rec.name, Values: rec.values}
		pool.add(rec)
	}
	return r.net.PublishBatch(pubs)
}

// execOp draws and executes the operation that arrived at at, recording
// its metrics. Its latency runs from at, so the time it waited for an
// executor counts in it; that queue wait (start minus at) is also sampled
// on its own, and queries carry it to the diagnostics layer.
func (r *Runner) execOp(ctx context.Context, smp *sampler, pool *keyPool, coll *collector, at time.Time) {
	wait := time.Since(at)
	coll.queueWait.Add(float64(wait) / float64(time.Millisecond))
	switch kind := smp.nextOp(); kind {
	case OpPublish:
		r.doPublish(smp, pool, &coll.ops[OpPublish], at)
	case OpUnpublish:
		rec, ok := pool.take(smp.rng)
		if !ok {
			// Nothing left to delete: publish instead so the mix stays
			// sustainable (recorded as a publish).
			r.doPublish(smp, pool, &coll.ops[OpPublish], at)
			return
		}
		oc := &coll.ops[OpUnpublish]
		err := r.net.Unpublish(rec.name, rec.values...)
		if errors.Is(err, armada.ErrNoSuchObject) {
			// The object died with a crashed peer — a miss, not a fault.
			oc.misses.Add(1)
			err = nil
		}
		oc.record(at, err)
	case OpLookup:
		// Look up a live object by its attribute values — the exact-match
		// query for something Publish actually stored. With an empty pool,
		// fall back to a name probe that exercises pure routing.
		rec, fromPool := pool.sample(smp.rng)
		var q armada.Query
		if fromPool {
			q = armada.NewValueLookup(rec.values)
		} else {
			q = armada.NewLookup(fmt.Sprintf("probe-%d", smp.rng.Int63()))
		}
		q.QueueWait = wait
		res := r.doQuery(ctx, q, &coll.ops[OpLookup], coll, at)
		// The looked-up object missing from its ObjectID's result while the
		// pool still considers it live means crash churn destroyed it — an
		// availability miss, kept apart from errors. (Re-checking the pool
		// filters the benign race of sampling a record that a concurrent
		// unpublish then removed.)
		if res != nil && fromPool && !slices.ContainsFunc(res.Objects,
			func(o armada.Object) bool { return o.Name == rec.name }) && pool.hasName(rec.name) {
			coll.ops[OpLookup].misses.Add(1)
		}
	case OpRange:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithQueueWait(wait)), &coll.ops[OpRange], coll, at)
	case OpMultiRange:
		r.doQuery(ctx, armada.NewRange(smp.ranges(true), armada.WithQueueWait(wait)), &coll.ops[OpMultiRange], coll, at)
	case OpTopK:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithTopK(topK), armada.WithQueueWait(wait)), &coll.ops[OpTopK], coll, at)
	case OpFlood:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithFlood(), armada.WithQueueWait(wait)), &coll.ops[OpFlood], coll, at)
	case OpRangePaged:
		r.doPagedRange(ctx, smp, &coll.ops[OpRangePaged], coll, at, wait)
	}
}

// doPagedRange walks one range query page by page through a query session
// until the cursor is exhausted (page 1 descends and the session keeps the
// owners it delivered to; later pages are seeded directly at those still
// ahead of the cursor). The whole walk is one operation: its
// latency runs from its arrival at through the last page, hop metrics accumulate across them (delay
// takes the max — pages could be issued concurrently), and per-page
// result sizes, destinations and message costs land in the per-page
// samples. A walk cut short by run shutdown is counted as a cancelled
// operation, not a sample — partial walks would skew the page and match
// quantiles low.
func (r *Runner) doPagedRange(ctx context.Context, smp *sampler, oc *opCollector, coll *collector, at time.Time, wait time.Duration) {
	ranges := smp.ranges(false)

	// Only the walk's first page actually paid the queue wait; later
	// pages run back to back, so the stamp stays on page one.
	sess, err := r.net.OpenSession(armada.NewRange(ranges,
		armada.WithLimit(r.sc.PageLimit), armada.WithQueueWait(wait)))
	if err != nil {
		oc.record(at, err)
		return
	}
	defer sess.Close()

	var (
		matches, delay, msgs        int
		deliveries, replicaServed   int
		descentsSaved, shortcutHits int
		// flushed only when the whole walk succeeds
		pageSizes, pageDests, pageMs, pageHops []int
	)
	for {
		res, err := sess.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				// Run shutdown cut the walk short: a cancelled op, not an
				// error and not a (partial) sample.
				oc.cancelled.Add(1)
				return
			}
			oc.record(at, err)
			return
		}
		matches += len(res.Objects)
		msgs += res.Stats.Messages
		if res.Stats.Delay > delay {
			delay = res.Stats.Delay
		}
		deliveries += res.Stats.Deliveries
		replicaServed += res.Stats.ReplicaServed
		descentsSaved += res.Stats.DescentsSaved
		shortcutHits += res.Stats.ShortcutHits
		pageSizes = append(pageSizes, len(res.Objects))
		pageDests = append(pageDests, res.Stats.DestPeers) // per page: the fan-out each page pays
		pageMs = append(pageMs, res.Stats.Messages)        // per page: what reaching it cost
		pageHops = append(pageHops, res.Stats.Delay)       // per page: its realized descent depth
		if res.NextOffsetID == "" {
			break
		}
	}
	oc.record(at, nil)
	oc.delay.AddInt(delay)
	oc.msgs.AddInt(msgs)
	oc.matches.AddInt(matches)
	oc.pages.AddInt(len(pageSizes))
	for i := range pageSizes {
		oc.perPage.AddInt(pageSizes[i])
		oc.dest.AddInt(pageDests[i])
		oc.perPageMsgs.AddInt(pageMs[i])
		oc.hops.AddInt(pageHops[i])
	}
	oc.descentsSaved.Add(int64(descentsSaved))
	oc.shortcutHits.Add(int64(shortcutHits))
	coll.noteReadSpread(deliveries, replicaServed)
}

func (r *Runner) doPublish(smp *sampler, pool *keyPool, oc *opCollector, at time.Time) {
	rec := pubRec{name: pool.nextName(), values: smp.values()}
	err := r.net.Publish(rec.name, rec.values...)
	oc.record(at, err)
	if err == nil {
		pool.add(rec)
	}
}

// doQuery runs the query that arrived at at, records its metrics and
// returns the result (nil when the query failed or the run is shutting
// down).
func (r *Runner) doQuery(ctx context.Context, q armada.Query, oc *opCollector, coll *collector, at time.Time) *armada.Result {
	res, err := r.net.Do(ctx, q)
	if err != nil && ctx.Err() != nil {
		oc.cancelled.Add(1) // shutdown races are not workload errors
		return nil
	}
	oc.record(at, err)
	if err != nil {
		return nil
	}
	oc.delay.AddInt(res.Stats.Delay)
	oc.hops.AddInt(res.Stats.Delay)
	oc.msgs.AddInt(res.Stats.Messages)
	oc.dest.AddInt(res.Stats.DestPeers)
	oc.matches.AddInt(len(res.Objects))
	oc.descentsSaved.Add(int64(res.Stats.DescentsSaved))
	oc.shortcutHits.Add(int64(res.Stats.ShortcutHits))
	coll.noteReadSpread(res.Stats.Deliveries, res.Stats.ReplicaServed)
	return res
}

// churn runs the merged Poisson join/leave/fail process until ctx ends.
// Like the arrival clock, it keeps an absolute schedule: event times
// are drawn independently of how long each event takes to execute, so when
// an event overruns its gap the following ones fire back to back instead
// of silently stretching the process — the realized rate tracks the
// nominal one up to what the network can absorb.
func (r *Runner) churn(ctx context.Context, coll *collector) {
	sc := &r.sc
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x51f15eed))
	total := sc.Churn.totalRate()
	mean := float64(time.Second) / total
	for next := time.Now(); ; {
		next = next.Add(time.Duration(rng.ExpFloat64() * mean))
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(next)):
		}
		if ctx.Err() != nil {
			return
		}
		var err error
		switch x := rng.Float64() * total; {
		case x < sc.Churn.JoinPerSec:
			if _, err = r.net.Join(); err == nil {
				coll.churnJoins.Add(1)
			}
		case x < sc.Churn.JoinPerSec+sc.Churn.LeavePerSec:
			if r.net.Size() <= sc.Churn.MinPeers {
				coll.churnSkips.Add(1)
				continue
			}
			if err = r.net.Leave(r.net.RandomPeer()); err == nil {
				coll.churnLeaves.Add(1)
			}
		default:
			if r.net.Size() <= sc.Churn.MinPeers {
				coll.churnSkips.Add(1)
				continue
			}
			if err = r.net.Fail(r.net.RandomPeer()); err == nil {
				coll.churnFails.Add(1)
			}
		}
		if err != nil {
			coll.churnErrs.Add(1)
		}
	}
}

// snapshots takes one Snapshot per scenario interval until ctx ends.
func (r *Runner) snapshots(ctx context.Context, start time.Time, coll *collector) {
	tick := time.NewTicker(r.sc.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		snap := coll.takeSnapshot(time.Since(start), r.net.Size(), r.net.MetricValues())
		if r.OnSnapshot != nil {
			r.OnSnapshot(snap)
		}
	}
}

// report assembles the final Report.
func (r *Runner) report(elapsed time.Duration, startPeers int, coll *collector) *Report {
	secs := elapsed.Seconds()
	rep := &Report{
		Scenario:    r.sc.Name,
		Seed:        r.sc.Seed,
		Attributes:  len(r.sc.Attrs),
		Replicas:    r.sc.Replicas,
		StartPeers:  startPeers,
		EndPeers:    r.net.Size(),
		DurationSec: secs,
		Ops:         make(map[string]OpReport, int(numOps)),
		Churn: ChurnReport{
			Joins:   int(coll.churnJoins.Load()),
			Leaves:  int(coll.churnLeaves.Load()),
			Fails:   int(coll.churnFails.Load()),
			Skipped: int(coll.churnSkips.Load()),
			Errors:  int(coll.churnErrs.Load()),
		},
		Intervals:      coll.snapshots(),
		QueueWaitMs:    quantilesOf(coll.queueWait.Snapshot()),
		DispatchLateMs: quantilesOf(coll.dispatchLate.Snapshot()),
		Dropped:        int(coll.dropped.Load()),
	}
	if r.sc.Replicas > 1 {
		rep.ReplicaReads = coll.replicaReads.Load()
		rep.ReplicaReadSpread = quantilesOf(coll.replicaSpread.Snapshot())
	}
	for k := OpKind(0); k < numOps; k++ {
		oc := &coll.ops[k]
		count := int(oc.count.Load())
		cancelled := int(oc.cancelled.Load())
		if count == 0 && cancelled == 0 {
			continue
		}
		op := OpReport{
			Count:           count,
			Errors:          int(oc.errs.Load()),
			Misses:          int(oc.misses.Load()),
			Cancelled:       cancelled,
			DescentsSaved:   int(oc.descentsSaved.Load()),
			ShortcutHits:    int(oc.shortcutHits.Load()),
			LatencyMs:       quantilesOf(oc.lat.Snapshot()),
			HopDelay:        quantilesOf(oc.delay.Snapshot()),
			Hops:            quantilesOf(oc.hops.Snapshot()),
			Messages:        quantilesOf(oc.msgs.Snapshot()),
			DestPeers:       quantilesOf(oc.dest.Snapshot()),
			Matches:         quantilesOf(oc.matches.Snapshot()),
			Pages:           quantilesOf(oc.pages.Snapshot()),
			MatchesPerPage:  quantilesOf(oc.perPage.Snapshot()),
			MessagesPerPage: quantilesOf(oc.perPageMsgs.Snapshot()),
		}
		if secs > 0 {
			op.Throughput = float64(count) / secs
		}
		rep.Ops[k.String()] = op
		rep.TotalOps += count
		rep.TotalErrors += op.Errors
		rep.TotalCancelled += cancelled
		rep.AvailabilityMisses += op.Misses
		rep.DescentsSaved += op.DescentsSaved
		rep.ShortcutHits += op.ShortcutHits
	}
	if secs > 0 {
		rep.Throughput = float64(rep.TotalOps) / secs
	}
	return rep
}

// opCollector gathers one operation kind's metrics from many executors.
type opCollector struct {
	count     atomic.Int64
	errs      atomic.Int64
	misses    atomic.Int64
	cancelled atomic.Int64 // ops cut short by run shutdown (no sample recorded)

	// Descent reuse: queries seeded at learned owners instead of descending
	// (descentsSaved) and the subset the network's route cache seeded rather
	// than a session's own tiles (shortcutHits).
	descentsSaved atomic.Int64
	shortcutHits  atomic.Int64

	// interval points at the run collector's shared interval-latency
	// sample; record feeds it alongside lat so snapshots can report
	// interval-local quantiles.
	interval *stats.SafeSample

	lat         stats.SafeSample // scheduled arrival to completion, ms
	delay       stats.SafeSample // hop delay (query kinds; walk max for range-paged)
	hops        stats.SafeSample // per-descent hop count (query kinds; per page for range-paged)
	msgs        stats.SafeSample // overlay messages (query kinds)
	dest        stats.SafeSample // destination peers (query kinds; per page for range-paged)
	matches     stats.SafeSample // result-set size (query kinds; whole walk for range-paged)
	pages       stats.SafeSample // pages per walk (range-paged only)
	perPage     stats.SafeSample // matches per page (range-paged only)
	perPageMsgs stats.SafeSample // messages per page (range-paged only)
}

// record counts one completed operation; successful ones contribute their
// latency, from the scheduled arrival at to now.
func (oc *opCollector) record(at time.Time, err error) {
	oc.count.Add(1)
	if err != nil {
		oc.errs.Add(1)
		return
	}
	ms := float64(time.Since(at)) / float64(time.Millisecond)
	oc.lat.Add(ms)
	oc.interval.Add(ms)
}

// collector aggregates a whole run.
type collector struct {
	ops [numOps]opCollector

	// Saturation metrics: queue wait and lateness of served arrivals, and
	// the arrivals due at a stop that no executor started.
	queueWait    stats.SafeSample
	dispatchLate stats.SafeSample
	dropped      atomic.Int64

	// Replica read spreading: per query, the fraction of deliveries served
	// by a non-primary replica, plus the absolute count. Sampled only when
	// trackSpread is set (replicated runs) — unreplicated runs would pay a
	// lock and an O(ops) sample for all-zero data.
	trackSpread   bool
	replicaSpread stats.SafeSample
	replicaReads  atomic.Int64

	churnJoins  atomic.Int64
	churnLeaves atomic.Int64
	churnFails  atomic.Int64
	churnSkips  atomic.Int64
	churnErrs   atomic.Int64

	// intervalLat pools the wall-clock latencies of the current interval
	// across all op kinds; takeSnapshot drains it.
	intervalLat stats.SafeSample

	snapMu      sync.Mutex
	snaps       []Snapshot
	lastOps     int64
	lastErrs    int64
	lastAt      time.Duration
	lastMetrics map[string]int64
}

// newCollector builds a run collector; startMetrics is the network's
// counter snapshot at run start, the baseline of the first interval's
// metric deltas.
func newCollector(trackSpread bool, startMetrics map[string]int64) *collector {
	c := &collector{trackSpread: trackSpread, lastMetrics: startMetrics}
	for i := range c.ops {
		c.ops[i].interval = &c.intervalLat
	}
	return c
}

// metricsDelta returns end minus start per counter. With onlyChanged set,
// unmoved counters are dropped (interval snapshots stay compact); without
// it every end key is present (the report's full-run block).
func metricsDelta(start, end map[string]int64, onlyChanged bool) map[string]int64 {
	out := make(map[string]int64, len(end))
	for k, v := range end {
		d := v - start[k]
		if onlyChanged && d == 0 {
			continue
		}
		out[k] = d
	}
	return out
}

// noteReadSpread records one query's replica read spread: the fraction of
// its deliveries a non-primary replica served.
func (c *collector) noteReadSpread(deliveries, replicaServed int) {
	if !c.trackSpread || deliveries <= 0 {
		return
	}
	c.replicaReads.Add(int64(replicaServed))
	c.replicaSpread.Add(float64(replicaServed) / float64(deliveries))
}

func (c *collector) totals() (ops, errs int64) {
	for i := range c.ops {
		ops += c.ops[i].count.Load()
		errs += c.ops[i].errs.Load()
	}
	return ops, errs
}

// takeSnapshot records the interval since the previous snapshot. at is
// clamped to the previous snapshot's time so a final snapshot racing a
// periodic tick can never make the interval list go backwards.
func (c *collector) takeSnapshot(at time.Duration, peers int, metrics map[string]int64) Snapshot {
	ops, errs := c.totals()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if at < c.lastAt {
		at = c.lastAt
	}
	snap := Snapshot{
		AtSec:     at.Seconds(),
		Ops:       int(ops - c.lastOps),
		Errors:    int(errs - c.lastErrs),
		Peers:     peers,
		LatencyMs: quantilesOf(c.intervalLat.Drain()),
		Metrics:   metricsDelta(c.lastMetrics, metrics, true),
	}
	if dt := (at - c.lastAt).Seconds(); dt > 0 {
		snap.Throughput = float64(snap.Ops) / dt
	}
	c.lastOps, c.lastErrs, c.lastAt, c.lastMetrics = ops, errs, at, metrics
	c.snaps = append(c.snaps, snap)
	return snap
}

func (c *collector) snapshots() []Snapshot {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return append([]Snapshot(nil), c.snaps...)
}

// pubRec is one live published object the pool can hand to unpublish and
// lookup operations.
type pubRec struct {
	name   string
	values []float64
}

// keyPool tracks the set of currently published objects across all
// executors. names indexes the live records so availability checks
// (hasName) need no scan.
type keyPool struct {
	seq   atomic.Int64
	mu    sync.Mutex
	recs  []pubRec
	names map[string]struct{}
}

// nextName mints a unique object name.
func (p *keyPool) nextName() string {
	return fmt.Sprintf("wl-%08d", p.seq.Add(1))
}

func (p *keyPool) add(rec pubRec) {
	p.mu.Lock()
	if p.names == nil {
		p.names = make(map[string]struct{})
	}
	p.recs = append(p.recs, rec)
	p.names[rec.name] = struct{}{}
	p.mu.Unlock()
}

// take removes and returns a uniformly random record.
func (p *keyPool) take(rng *rand.Rand) (pubRec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recs) == 0 {
		return pubRec{}, false
	}
	i := rng.Intn(len(p.recs))
	rec := p.recs[i]
	last := len(p.recs) - 1
	p.recs[i] = p.recs[last]
	p.recs = p.recs[:last]
	delete(p.names, rec.name)
	return rec, true
}

// sample returns a random live record without removing it.
func (p *keyPool) sample(rng *rand.Rand) (pubRec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recs) == 0 {
		return pubRec{}, false
	}
	return p.recs[rng.Intn(len(p.recs))], true
}

// hasName reports whether the named object is still in the live pool.
func (p *keyPool) hasName(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.names[name]
	return ok
}
