package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

	// runCtx stops the traffic; bgCtx keeps churn running until the
	// executors have drained.
	runCtx := ctx
	if sc.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, sc.Duration)
		defer cancel()
	}
	bgCtx, stopBG := context.WithCancel(ctx)
	defer stopBG()

	startMetrics := r.net.MetricValues()
	startPeers := r.net.Size()
	start := time.Now()
	churned := make(chan ChurnReport, 1)
	if sc.Churn.Enabled() {
		go func() { churned <- r.churn(bgCtx) }()
	} else {
		churned <- ChurnReport{}
	}
	recorded := r.serve(runCtx, pool)
	elapsed := time.Since(start)
	stopBG()
	churn := <-churned

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("workload: run aborted: %w", err)
	}
	rep := r.report(elapsed, startPeers, recorded)
	rep.Churn = churn
	rep.Metrics = r.net.MetricValues()
	for k := range rep.Metrics {
		rep.Metrics[k] -= startMetrics[k]
	}
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

// serve runs Workers executors until Ops arrivals are served or ctx ends.
// They take turns as the arrival clock through a one-slot channel (a mutex
// starves: each Unlock yields the P to a waiter before the releaser serves
// its arrival). An idle executor takes the turn, awaits the next arrival of
// the absolute Poisson schedule, passes the turn on and serves the arrival;
// while all are busy, arrivals fall due and wait. An arrival taken that
// fell due by the stop is served: the first holder to find the run stopped
// serves the one it took, counts those due behind it as dropped — at the
// schedule's rate, not drawn one by one, so the stop costs the same at any
// backlog — and closes turn. Each executor records into its own samples,
// which serve merges once every executor is done.
func (r *Runner) serve(ctx context.Context, pool *keyPool) *samples {
	sc := &r.sc
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x9e3779b9))
	mean := float64(time.Second) / sc.Arrival.RatePerSec
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() * mean) }
	n, next := 0, time.Now().Add(gap()) // arrivals taken, and the next one: the holder's alone
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	var executors sync.WaitGroup
	all := make([]samples, sc.Arrival.Workers)
	for w := range all {
		executors.Add(1)
		go func(id int, s *samples) {
			defer executors.Done()
			smp := newSampler(sc, sc.Seed+int64(id)*7919+1)
			for range turn {
				at := next
				if sc.Ops > 0 && n >= sc.Ops || !await(ctx, &s.dispatchLate, at) {
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
					s.dropped += d
					close(turn)
				}
				r.execOp(ctx, smp, pool, s, at)
			}
		}(w, &all[w])
	}
	executors.Wait()
	for i := 1; i < len(all); i++ {
		all[0].merge(&all[i])
	}
	return &all[0]
}

// await waits for the arrival at at and reports whether it fell due by the
// stop: false if ctx ended before at. An arrival already due is backlog
// and goes at once. Otherwise await sleeps until a millisecond before at —
// the netpoller sleeps in whole milliseconds, so a timer alone fires up to
// ~10 ms late — then yields until at, and samples the lateness (release
// minus at) into late.
func await(ctx context.Context, late *stats.Sample, at time.Time) bool {
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
func (r *Runner) execOp(ctx context.Context, smp *sampler, pool *keyPool, s *samples, at time.Time) {
	wait := time.Since(at)
	s.queueWait.Add(float64(wait) / float64(time.Millisecond))
	kind := smp.nextOp()
	op := &s.ops[kind]
	switch kind {
	case OpPublish:
		r.doPublish(smp, pool, op, at)
	case OpUnpublish:
		rec, ok := pool.take(smp.rng)
		if !ok {
			// Nothing left to delete: publish instead so the mix stays
			// sustainable (recorded as a publish).
			r.doPublish(smp, pool, &s.ops[OpPublish], at)
			return
		}
		err := r.net.Unpublish(rec.name, rec.values...)
		if errors.Is(err, armada.ErrNoSuchObject) {
			// The object died with a crashed peer — a miss, not a fault.
			op.misses++
			err = nil
		}
		op.record(at, err)
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
		res := r.doQuery(ctx, q, op, at)
		// The looked-up object missing from its ObjectID's result while the
		// pool still considers it live means crash churn destroyed it — an
		// availability miss, kept apart from errors. (Re-checking the pool
		// filters the benign race of sampling a record that a concurrent
		// unpublish then removed.)
		if res != nil && fromPool && !slices.ContainsFunc(res.Objects,
			func(o armada.Object) bool { return o.Name == rec.name }) && pool.hasName(rec.name) {
			op.misses++
		}
	case OpRange:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithQueueWait(wait)), op, at)
	case OpMultiRange:
		r.doQuery(ctx, armada.NewRange(smp.ranges(true), armada.WithQueueWait(wait)), op, at)
	case OpTopK:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithTopK(topK), armada.WithQueueWait(wait)), op, at)
	case OpFlood:
		r.doQuery(ctx, armada.NewRange(smp.ranges(false), armada.WithFlood(), armada.WithQueueWait(wait)), op, at)
	case OpRangePaged:
		r.doPagedRange(ctx, smp, op, at, wait)
	}
}

// doPagedRange walks one range query page by page through a query session
// until the cursor is exhausted (page 1 descends and the session keeps the
// owners it delivered to; later pages are seeded directly at those still
// ahead of the cursor). The whole walk is one operation: its latency runs
// from its arrival at through the last page, its messages and matches are
// the walk's totals, and each page's hops, destinations, result size and
// messages land in the per-page samples. A walk cut short by run shutdown
// is counted as a cancelled operation, not a sample — partial walks would
// skew the page and match quantiles low.
func (r *Runner) doPagedRange(ctx context.Context, smp *sampler, op *opSamples, at time.Time, wait time.Duration) {
	// Only the walk's first page actually paid the queue wait; later
	// pages run back to back, so the stamp stays on page one.
	sess, err := r.net.OpenSession(armada.NewRange(smp.ranges(false),
		armada.WithLimit(r.sc.PageLimit), armada.WithQueueWait(wait)))
	if err != nil {
		op.record(at, err)
		return
	}
	defer sess.Close()

	// Flushed only when the whole walk succeeds.
	var (
		pages []armada.Stats
		sizes []int
	)
	for {
		res, err := sess.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				// Run shutdown cut the walk short: a cancelled op, not an
				// error and not a (partial) sample.
				op.cancelled++
				return
			}
			op.record(at, err)
			return
		}
		pages = append(pages, res.Stats)
		sizes = append(sizes, len(res.Objects))
		if res.NextOffsetID == "" {
			break
		}
	}
	op.record(at, nil)
	matches, msgs := 0, 0
	for i, st := range pages {
		matches += sizes[i]
		msgs += st.Messages
		op.hops.AddInt(st.Delay)
		op.dest.AddInt(st.DestPeers)
		op.perPage.AddInt(sizes[i])
		op.perPageMsgs.AddInt(st.Messages)
		op.descentsSaved += st.DescentsSaved
		op.shortcutHits += st.ShortcutHits
	}
	op.matches.AddInt(matches)
	op.msgs.AddInt(msgs)
	op.pages.AddInt(len(pages))
}

func (r *Runner) doPublish(smp *sampler, pool *keyPool, op *opSamples, at time.Time) {
	rec := pubRec{name: pool.nextName(), values: smp.values()}
	err := r.net.Publish(rec.name, rec.values...)
	op.record(at, err)
	if err == nil {
		pool.add(rec)
	}
}

// doQuery runs the query that arrived at at, records its metrics and
// returns the result (nil when the query failed or the run is shutting
// down).
func (r *Runner) doQuery(ctx context.Context, q armada.Query, op *opSamples, at time.Time) *armada.Result {
	res, err := r.net.Do(ctx, q)
	if err != nil && ctx.Err() != nil {
		op.cancelled++ // shutdown races are not workload errors
		return nil
	}
	op.record(at, err)
	if err != nil {
		return nil
	}
	op.hops.AddInt(res.Stats.Delay)
	op.msgs.AddInt(res.Stats.Messages)
	op.dest.AddInt(res.Stats.DestPeers)
	op.matches.AddInt(len(res.Objects))
	op.descentsSaved += res.Stats.DescentsSaved
	op.shortcutHits += res.Stats.ShortcutHits
	return res
}

// churn runs the merged Poisson join/leave/fail process until ctx ends.
// Like the arrival clock, it keeps an absolute schedule: event times
// are drawn independently of how long each event takes to execute, so when
// an event overruns its gap the following ones fire back to back instead
// of silently stretching the process — the realized rate tracks the
// nominal one up to what the network can absorb. It returns the events it
// ran when ctx ends.
func (r *Runner) churn(ctx context.Context) ChurnReport {
	sc := &r.sc
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x51f15eed))
	total := sc.Churn.totalRate()
	mean := float64(time.Second) / total
	var rep ChurnReport
	for next := time.Now(); ; {
		next = next.Add(time.Duration(rng.ExpFloat64() * mean))
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(next)):
		}
		if ctx.Err() != nil {
			return rep
		}
		var err error
		switch x := rng.Float64() * total; {
		case x < sc.Churn.JoinPerSec:
			if _, err = r.net.Join(); err == nil {
				rep.Joins++
			}
		case x < sc.Churn.JoinPerSec+sc.Churn.LeavePerSec:
			if r.net.Size() <= sc.Churn.MinPeers {
				rep.Skipped++
				continue
			}
			if err = r.net.Leave(r.net.RandomPeer()); err == nil {
				rep.Leaves++
			}
		default:
			if r.net.Size() <= sc.Churn.MinPeers {
				rep.Skipped++
				continue
			}
			if err = r.net.Fail(r.net.RandomPeer()); err == nil {
				rep.Fails++
			}
		}
		if err != nil {
			rep.Errors++
		}
	}
}

// report assembles the final Report from the run's merged samples.
func (r *Runner) report(elapsed time.Duration, startPeers int, s *samples) *Report {
	secs := elapsed.Seconds()
	rep := &Report{
		Scenario:       r.sc.Name,
		Seed:           r.sc.Seed,
		Attributes:     len(r.sc.Attrs),
		Replicas:       r.sc.Replicas,
		StartPeers:     startPeers,
		EndPeers:       r.net.Size(),
		DurationSec:    secs,
		Ops:            make(map[string]OpReport, int(numOps)),
		QueueWaitMs:    quantilesOf(&s.queueWait),
		DispatchLateMs: quantilesOf(&s.dispatchLate),
		Dropped:        s.dropped,
	}
	for k := OpKind(0); k < numOps; k++ {
		op := &s.ops[k]
		if op.count == 0 && op.cancelled == 0 {
			continue
		}
		o := OpReport{
			Count:           op.count,
			Errors:          op.errs,
			Misses:          op.misses,
			Cancelled:       op.cancelled,
			DescentsSaved:   op.descentsSaved,
			ShortcutHits:    op.shortcutHits,
			LatencyMs:       quantilesOf(&op.lat),
			Hops:            quantilesOf(&op.hops),
			Messages:        quantilesOf(&op.msgs),
			DestPeers:       quantilesOf(&op.dest),
			Matches:         quantilesOf(&op.matches),
			Pages:           quantilesOf(&op.pages),
			MatchesPerPage:  quantilesOf(&op.perPage),
			MessagesPerPage: quantilesOf(&op.perPageMsgs),
		}
		if secs > 0 {
			o.Throughput = float64(op.count) / secs
		}
		rep.Ops[k.String()] = o
		rep.TotalOps += op.count
		rep.TotalErrors += op.errs
		rep.TotalCancelled += op.cancelled
		rep.AvailabilityMisses += op.misses
		rep.DescentsSaved += op.descentsSaved
		rep.ShortcutHits += op.shortcutHits
	}
	if secs > 0 {
		rep.Throughput = float64(rep.TotalOps) / secs
	}
	return rep
}

// samples is what one executor records over a run. No other goroutine
// touches it until serve merges every executor's into one after they are
// done, so recording an operation takes no lock.
type samples struct {
	ops [numOps]opSamples

	// Saturation metrics: queue wait and lateness of served arrivals, and
	// the arrivals due at a stop that no executor started.
	queueWait    stats.Sample
	dispatchLate stats.Sample
	dropped      int
}

// merge adds everything o recorded to s.
func (s *samples) merge(o *samples) {
	for k := range s.ops {
		s.ops[k].merge(&o.ops[k])
	}
	s.queueWait.Merge(&o.queueWait)
	s.dispatchLate.Merge(&o.dispatchLate)
	s.dropped += o.dropped
}

// opSamples is what one executor records of one operation kind.
type opSamples struct {
	count, errs, misses int
	cancelled           int // ops cut short by run shutdown (no sample recorded)

	// Descent reuse: queries seeded at learned owners instead of descending
	// (descentsSaved) and the subset the network's route cache seeded rather
	// than a session's own tiles (shortcutHits).
	descentsSaved, shortcutHits int

	lat         stats.Sample // scheduled arrival to completion, ms
	hops        stats.Sample // hop delay (query kinds; per page for range-paged)
	msgs        stats.Sample // overlay messages (query kinds; whole walk for range-paged)
	dest        stats.Sample // destination peers (query kinds; per page for range-paged)
	matches     stats.Sample // result-set size (query kinds; whole walk for range-paged)
	pages       stats.Sample // pages per walk (range-paged only)
	perPage     stats.Sample // matches per page (range-paged only)
	perPageMsgs stats.Sample // messages per page (range-paged only)
}

// record counts one completed operation; successful ones contribute their
// latency, from the scheduled arrival at to now.
func (o *opSamples) record(at time.Time, err error) {
	o.count++
	if err != nil {
		o.errs++
		return
	}
	o.lat.Add(float64(time.Since(at)) / float64(time.Millisecond))
}

// merge adds everything p recorded to o.
func (o *opSamples) merge(p *opSamples) {
	o.count += p.count
	o.errs += p.errs
	o.misses += p.misses
	o.cancelled += p.cancelled
	o.descentsSaved += p.descentsSaved
	o.shortcutHits += p.shortcutHits
	o.lat.Merge(&p.lat)
	o.hops.Merge(&p.hops)
	o.msgs.Merge(&p.msgs)
	o.dest.Merge(&p.dest)
	o.matches.Merge(&p.matches)
	o.pages.Merge(&p.pages)
	o.perPage.Merge(&p.perPage)
	o.perPageMsgs.Merge(&p.perPageMsgs)
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
