package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"armada"
)

// sample is one timed call of the measured phase: a client operation, or
// one page of a walk.
type sample struct {
	ns   uint32
	kind uint8
	hit  bool // lookup served by the shortcut table
}

// counts are one client's query tallies over the measured phase.
type counts struct {
	queries, hops, msgs, dests  int64 // lookups and ranges
	ranges, frontierHits        int64
	shortcutHits                int64
	laterPages, laterPagesSaved int64 // pages after a walk's first, and those that skipped their descent
	delayViolations             int64
}

func (c *counts) add(o *counts) {
	c.queries += o.queries
	c.hops += o.hops
	c.msgs += o.msgs
	c.dests += o.dests
	c.ranges += o.ranges
	c.frontierHits += o.frontierHits
	c.shortcutHits += o.shortcutHits
	c.laterPages += o.laterPages
	c.laterPagesSaved += o.laterPagesSaved
	c.delayViolations += o.delayViolations
}

// client is one closed-loop client: it draws an operation, runs it against
// the network, checks the answer and draws the next. Only the calls into
// the network are timed, not the checks.
type client struct {
	w       *workload
	in      *inputs
	net     *armada.Network
	gen     *generator
	issuers []string      // fixed peer list of a churn-free workload, nil under churn
	size    *atomic.Int64 // current network size, kept by the churn goroutine
	start   time.Time     // start of the measured phase
	window  time.Duration

	counts               // reset when the measured phase starts
	measuring            bool
	failed               int64
	firstErr             error
	warmOps, warmSamples int64
	winOps, winObjects   [windows]int64
	winSamples           [windows][]sample
	kern                 *kernel
	lastKernel           time.Time
	winKernel            [windows][]float64 // the reference kernel's durations, ns
	checked              int                // results seen by sampled
	rangeBuf             [2]armada.Range
	lastSize             int64   // network size bound was computed for
	bound                float64 // 2·log₂(lastSize)
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// issuer names the issuing peer: drawn from the generator's stream where
// the peer set is fixed, so that hop counts repeat exactly, and left to the
// network where churn would invalidate the choice.
func (c *client) issuer(o *op) string {
	if c.issuers == nil {
		return ""
	}
	return c.issuers[int(o.issuer)%len(c.issuers)]
}

// lookupQuery and rangeQuery build the query without allocating: the
// generator's share of allocs_per_op is one string per publish.
func (c *client) lookupQuery(o *op) armada.Query {
	return armada.Query{Kind: armada.KindLookup, Values: c.in.preload[o.target].vals[:len(c.w.attrs)], Issuer: c.issuer(o)}
}

func (c *client) rangeQuery(o *op) armada.Query {
	for a := range c.w.attrs {
		c.rangeBuf[a] = armada.Range{Low: o.r.lo[a], High: o.r.hi[a]}
	}
	return armada.Query{Kind: armada.KindRange, Ranges: c.rangeBuf[:len(c.w.attrs)], Issuer: c.issuer(o)}
}

// checkDelay applies the paper's bound, Delay < 2·log₂N, for the network
// size at the time of the query.
func (c *client) checkDelay(st armada.Stats) error {
	if n := c.size.Load(); n != c.lastSize {
		c.lastSize, c.bound = n, 2*math.Log2(float64(n))
	}
	if float64(st.Delay) >= c.bound {
		c.delayViolations++
		return fmt.Errorf("delay %d at or above 2·log₂N = %.2f", st.Delay, c.bound)
	}
	return nil
}

// run executes operations until the deadline. Operations that end before
// the measured phase starts are warm-up and only counted. Every kernelGap
// the client times the reference kernel between two operations.
func (c *client) run(ctx context.Context, deadline time.Time) {
	for {
		o := c.gen.next()
		r, err := c.do(ctx, &o)
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		c.record(uint8(o.kind), r.took, now, r.hit)
		if err != nil {
			c.fail(fmt.Errorf("%s: %w", kindNames[o.kind], err))
		}
		w := c.windowOf(now)
		if now.Sub(c.lastKernel) >= kernelGap {
			c.lastKernel = now
			if d := c.kern.run(); w >= 0 {
				c.winKernel[w] = append(c.winKernel[w], float64(d))
			}
		}
		if w < 0 {
			c.warmOps++
			continue
		}
		if !c.measuring {
			c.measuring, c.counts = true, counts{}
		}
		c.winOps[w]++
		c.winObjects[w] += int64(r.objects)
	}
}

// windowOf returns the measured window t falls in, -1 during warm-up.
func (c *client) windowOf(t time.Time) int {
	d := t.Sub(c.start)
	if d < 0 {
		return -1
	}
	return min(int(d/c.window), windows-1)
}

// record stores one latency sample in the window it ended in. A window's
// slice is sized when the window opens, from the window before it or from
// the warm-up (which is a fifth longer than a window), so appends rarely
// grow it.
func (c *client) record(kind uint8, took time.Duration, end time.Time, hit bool) {
	w := c.windowOf(end)
	if w < 0 {
		c.warmSamples++
		return
	}
	if c.winSamples[w] == nil {
		size := c.warmSamples
		if w > 0 {
			size = int64(len(c.winSamples[w-1])) * 5 / 4
		}
		c.winSamples[w] = make([]sample, 0, size)
	}
	c.winSamples[w] = append(c.winSamples[w], sample{ns: uint32(min(took, math.MaxUint32)), kind: kind, hit: hit})
}

// done is what one operation came to: how long its calls into the network
// took, how many objects they handed back, and whether the shortcut table
// served it.
type done struct {
	took    time.Duration
	objects int
	hit     bool
}

// do runs one operation and checks its answer.
func (c *client) do(ctx context.Context, o *op) (done, error) {
	or := c.in.oracle
	switch o.kind {
	case opLookup:
		q := c.lookupQuery(o)
		t0 := time.Now()
		res, err := c.net.Do(ctx, q)
		r := done{took: time.Since(t0)}
		if err != nil {
			return r, err
		}
		c.noteQuery(res.Stats)
		r.objects, r.hit = len(res.Objects), res.Stats.ShortcutHits > 0
		want := c.in.preload[o.target].name
		if !slices.ContainsFunc(res.Objects, func(ob armada.Object) bool { return ob.Name == want }) {
			return r, fmt.Errorf("preloaded object %q not returned", want)
		}
		return r, c.checkDelay(res.Stats)

	case opRange, opTopK:
		q := c.rangeQuery(o)
		if o.kind == opTopK {
			q.Kind, q.K = armada.KindTopK, c.w.topK
		}
		t0 := time.Now()
		res, err := c.net.Do(ctx, q)
		r := done{took: time.Since(t0)}
		if err != nil {
			return r, err
		}
		r.objects = len(res.Objects)
		var t tally
		full := c.sampled()
		if err := or.checkObjects(res.Objects, &o.r, o.kind == opRange, full, &t); err != nil {
			return r, err
		}
		if o.kind == opTopK {
			for i := 1; i < len(res.Objects); i++ {
				if res.Objects[i-1].Values[0] < res.Objects[i].Values[0] {
					return r, errors.New("top-k result not in descending order")
				}
			}
			return r, c.checkDelay(res.Stats)
		}
		c.noteQuery(res.Stats)
		c.ranges++
		c.frontierHits += int64(res.Stats.FrontierHits)
		if full {
			if err := or.matches(&o.r, t); err != nil {
				return r, err
			}
		}
		return r, c.checkDelay(res.Stats)

	case opWalk:
		q := c.rangeQuery(o)
		q.Limit = c.w.pageSize
		t0 := time.Now()
		sess, err := c.net.OpenSession(q)
		r := done{took: time.Since(t0)}
		if err != nil {
			return r, err
		}
		defer sess.Close()
		var (
			t    tally
			last armada.Object
			full = c.sampled()
		)
		for page := 0; sess.More(); page++ {
			t0 := time.Now()
			res, err := sess.Next(ctx)
			t1 := time.Now()
			r.took += t1.Sub(t0)
			if err != nil {
				return r, err
			}
			c.record(uint8(kindPage), t1.Sub(t0), t1, false)
			if page > 0 {
				c.laterPages++
				c.laterPagesSaved += int64(res.Stats.DescentsSaved)
			}
			r.objects += len(res.Objects)
			if err := or.checkObjects(res.Objects, &o.r, true, full, &t); err != nil {
				return r, err
			}
			if len(res.Objects) > 0 {
				if page > 0 && res.Objects[0].ID <= last.ID {
					return r, fmt.Errorf("page %d starts at or before the previous page's end", page)
				}
				last = res.Objects[len(res.Objects)-1]
			}
			if err := c.checkDelay(res.Stats); err != nil {
				return r, err
			}
		}
		if full {
			return r, or.matches(&o.r, t)
		}
		return r, nil

	case opPublish:
		t0 := time.Now()
		err := c.net.Publish(o.obj.name, o.obj.vals[:len(c.w.attrs)]...)
		return done{took: time.Since(t0)}, err

	default: // opUnpublish
		t0 := time.Now()
		err := c.net.Unpublish(o.obj.name, o.obj.vals[:len(c.w.attrs)]...)
		return done{took: time.Since(t0)}, err
	}
}

// sampled reports whether this result is one of the 1 in sampleEvery whose
// preloaded objects are compared with the oracle, values and all.
func (c *client) sampled() bool {
	c.checked++
	return c.checked%sampleEvery == 0
}

func (c *client) noteQuery(st armada.Stats) {
	c.queries++
	c.hops += int64(st.Delay)
	c.msgs += int64(st.Messages)
	c.dests += int64(st.DestPeers)
	c.shortcutHits += int64(st.ShortcutHits)
}
