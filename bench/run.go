package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"armada"
)

const (
	clients = 2
	// windows is how many equal windows the measured phase is cut into;
	// every timing metric is the median of its per-window values, which
	// damps a noisy neighbour.
	windows = 6
	// A run sets the network up at least minSetups times and until the
	// set-ups have taken setupBudget, but no more than maxSetups times.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
	// sampleEvery is the share of range, walk and top-k results whose
	// preloaded objects are compared with the oracle.
	sampleEvery = 64
	// verifyQueries is the number of quiesced queries of each kind compared
	// with the live oracle after the run.
	verifyQueries = 200
	// probeCalls is about how often a round of a traced-pass probe calls
	// the function it times.
	probeCalls = 50000
)

// value is one measured metric with the number of samples behind it; a
// latency quantile, the median over windows, also carries the sample count
// of its smallest window.
type value struct {
	v         float64
	n         int
	minWindow int
}

// results maps metric names to what a run measured.
type results map[string]value

func (r results) set(name string, v float64, n int) { r[name] = value{v: v, n: n} }

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	measure time.Duration
	trace   bool
	outDir  string
	// toy is the smoke test's run: one set-up, a fifth of the verification
	// queries, a hundredth of the probe calls.
	toy bool
}

// sized returns n, or the share of it a toy run makes do with.
func (cfg runConfig) sized(n, toyShare int) int {
	if cfg.toy {
		return max(n/toyShare, 1)
	}
	return n
}

// outcome is what a run reports: its metrics and its operation counts.
type outcome struct {
	res       results
	attempted int64
	failed    int64
	firstErr  error
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// heapAlloc forces a collection and returns the live heap.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupTimes are the parts of one set-up, in processor time: what the
// process used on all its threads, which stands still while the hypervisor
// withholds the processors and counts work done in parallel in full.
type setupTimes struct {
	build, preload, gc time.Duration
	wall               time.Duration // build, preload and gc as the wall clock read them
	heapBuilt, heap    uint64        // live heap after the build and after the preload, above the baseline
	scale              float64       // speed scale of the machine during the set-up
}

func (s setupTimes) total() time.Duration { return s.build + s.preload + s.gc }

// setUp builds the workload's network and preloads it. The heap figures are
// what the network added to a collected heap; the collection between build
// and preload that separates them is not timed.
func setUp(w *workload, in *inputs, seed int64, extra ...armada.Option) (_ *armada.Network, st setupTimes, _ error) {
	speed := startSpeedometer(uint64(seed))
	defer func() { st.scale = speed.stop() }()
	base := heapAlloc()
	t0, c0 := time.Now(), processorTime()
	net, err := armada.NewNetwork(w.peers, append(w.networkOptions(seed), extra...)...)
	if err != nil {
		return nil, st, fmt.Errorf("set-up: %w", err)
	}
	st.build, st.wall = processorTime()-c0, time.Since(t0)
	st.heapBuilt = heapAlloc() - base
	t1, c1 := time.Now(), processorTime()
	for i := range in.preload {
		o := &in.preload[i]
		if err := net.Publish(o.name, o.vals[:len(w.attrs)]...); err != nil {
			return nil, st, fmt.Errorf("preload %q: %w", o.name, err)
		}
	}
	c2 := processorTime()
	runtime.GC()
	st.preload, st.gc = c2-c1, processorTime()-c2
	st.wall += time.Since(t1)
	st.heap = heapAlloc() - base
	return net, st, nil
}

// gcCPU reads the runtime's estimate of CPU seconds spent in the collector
// and in total.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runWorkload runs one workload once: set-up, warm-up, the measured phase,
// the quiesced verification and, when asked, the traced pass.
func runWorkload(cfg runConfig) (*outcome, error) {
	w := cfg.w
	out := &outcome{res: results{}}
	in := newInputs(w, cfg.seed)

	// Set-up, several times over: a set-up takes a fraction of a second, so
	// it is repeated until the set-ups have used their budget, and setup_s
	// is the median. The last network is the one measured.
	var (
		net   *armada.Network
		times []setupTimes
		spent time.Duration
	)
	for len(times) < cfg.sized(minSetups, minSetups) || (!cfg.toy && spent < setupBudget && len(times) < maxSetups) {
		net = nil // let the previous network go before this set-up takes its heap baseline
		n, st, err := setUp(w, in, cfg.seed)
		if err != nil {
			return nil, err
		}
		net, times, spent = n, append(times, st), spent+st.wall
	}
	med := func(f func(setupTimes) float64) float64 {
		vs := make([]float64, len(times))
		for i, st := range times {
			vs[i] = f(st)
		}
		return median(vs)
	}
	out.res.set("setup_s", med(func(s setupTimes) float64 { return s.total().Seconds() * s.scale }), len(times))
	out.res.set("fissione.build_s", med(func(s setupTimes) float64 { return s.build.Seconds() * s.scale }), len(times))
	out.res.set("facade.preload_s", med(func(s setupTimes) float64 { return s.preload.Seconds() * s.scale }), len(times))
	fmt.Printf("raw workload=%s setup_wall_s=%.4f\n", w.name, med(func(s setupTimes) float64 { return s.wall.Seconds() }))
	out.res.set("heap_mb", med(func(s setupTimes) float64 { return float64(s.heap) / 1e6 }), len(times))
	out.res.set("fissione.heap_bytes_per_peer", med(func(s setupTimes) float64 { return float64(s.heapBuilt) / float64(w.peers) }), len(times))

	// Warm-up and measured phase: one continuous closed loop.
	warm := cfg.measure / 5
	begin := time.Now()
	start := begin.Add(warm)
	deadline := start.Add(cfg.measure)
	var size atomic.Int64
	size.Store(int64(w.peers))
	var issuers []string
	if w.churn.total() == 0 {
		issuers = net.PeerIDs()
	}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{
			w: w, in: in, net: net, gen: newGenerator(in, cfg.seed, i),
			issuers: issuers, size: &size, start: start, window: cfg.measure / windows,
			kern: newKernel(uint64(cfg.seed)*2 + uint64(i)),
		}
	}
	var ch *churner
	var wg sync.WaitGroup
	if w.churn.total() > 0 {
		ch = &churner{rates: w.churn, net: net, size: &size, rng: rand.New(rand.NewSource(cfg.seed*31 + 5))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.run(begin, deadline)
		}()
	}
	ctx := context.Background()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, deadline)
		}()
	}
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(start))
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	rerepl0 := net.ReReplications()
	// The share of each window in which the hypervisor left the processors
	// to the machine.
	var given [windows]float64
	ticks := readMachineTicks()
	for w := range windows {
		time.Sleep(time.Until(start.Add(time.Duration(w+1) * cfg.measure / windows)))
		now := readMachineTicks()
		given[w], ticks = now.givenSince(ticks), now
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	wg.Wait()
	rerepl1 := net.ReReplications()

	if ch != nil {
		ch.rereplications = rerepl1 - rerepl0
	}
	measured(out, cfg, cs, ch, given, &m0, &m1)
	out.res.set("runtime.gc_cpu_ratio", (gc1-gc0)/(cpu1-cpu0), 1)

	// Quiesced verification against the flat oracle of every live object.
	gens := make([]*generator, len(cs))
	for i, c := range cs {
		gens[i] = c.gen
	}
	if err := verify(net, in, newLiveOracle(in, gens...), cfg); err != nil {
		out.fail(fmt.Errorf("verification: %w", err))
	}

	if cfg.trace {
		if err := tracedPass(out, cfg, in); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verify is the quiesced check after the run: queries of each kind the
// workload uses must equal the oracle exactly, and the overlay's audit must
// be clean.
func verify(net *armada.Network, in *inputs, or *liveOracle, cfg runConfig) error {
	w := in.w
	rng := rand.New(rand.NewSource(cfg.seed*131 + 3))
	ctx := context.Background()
	attrs := len(w.attrs)
	for range cfg.sized(verifyQueries, 5) {
		if w.mix[opLookup] > 0 {
			vals := or.objs[rng.Intn(len(or.objs))].vals
			res, err := net.Do(ctx, armada.NewValueLookup(vals[:attrs]))
			if err != nil {
				return err
			}
			if err := or.equalLookup(vals, res.Objects); err != nil {
				return err
			}
		}
		r := w.randRange(rng)
		if w.mix[opRange] > 0 {
			res, err := net.Do(ctx, armada.NewRange(r.ranges(attrs)))
			if err != nil {
				return err
			}
			if err := or.equalBox(&r, res.Objects); err != nil {
				return fmt.Errorf("range: %w", err)
			}
		}
		if w.mix[opTopK] > 0 {
			res, err := net.Do(ctx, armada.NewRange(r.ranges(attrs), armada.WithTopK(w.topK)))
			if err != nil {
				return err
			}
			if err := or.equalTopK(&r, w.topK, res.Objects); err != nil {
				return err
			}
		}
		if w.mix[opWalk] > 0 {
			sess, err := net.OpenSession(armada.NewRange(r.ranges(attrs), armada.WithLimit(w.pageSize)))
			if err != nil {
				return err
			}
			var all []armada.Object
			for sess.More() {
				res, err := sess.Next(ctx)
				if err != nil {
					return err
				}
				all = append(all, res.Objects...)
			}
			if err := or.equalBox(&r, all); err != nil {
				return fmt.Errorf("walk: %w", err)
			}
		}
	}
	if err := net.AuditSampled(500); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}
