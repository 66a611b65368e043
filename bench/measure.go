package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
)

// windowScales returns, for each window of the measured phase, the factor
// that turns a time measured in that window into time at nominal machine
// speed: the nominal duration of the reference kernel over its median
// duration in the window, both clients' runs pooled.
func windowScales(cs []*client) (scales [windows]float64) {
	for w := range windows {
		var runs []float64
		for _, c := range cs {
			runs = append(runs, c.winKernel[w]...)
		}
		scales[w] = speedScale(runs)
	}
	return scales
}

// series is one latency kind over the measured phase: each window's
// quantiles over both clients' samples, then the median window.
type series struct {
	p50, p99 float64 // µs at nominal machine speed
	rawP50   float64 // µs as the clock read
	n, minN  int     // samples in all windows and in the smallest
}

func quantiles(cs []*client, scales *[windows]float64, keep func(sample) bool) series {
	var p50s, p99s, raw []float64
	s := series{minN: math.MaxInt}
	for w := range windows {
		var us []float64
		for _, c := range cs {
			for _, sm := range c.winSamples[w] {
				if keep(sm) {
					us = append(us, float64(sm.ns)/1e3)
				}
			}
		}
		s.n += len(us)
		s.minN = min(s.minN, len(us))
		if len(us) == 0 {
			continue
		}
		slices.Sort(us)
		raw = append(raw, quantile(us, 0.50))
		p50s = append(p50s, quantile(us, 0.50)*scales[w])
		p99s = append(p99s, quantile(us, 0.99)*scales[w])
	}
	if len(p50s) > 0 {
		s.p50, s.p99, s.rawP50 = median(p50s), median(p99s), median(raw)
	}
	return s
}

// measured turns the clients' samples and tallies into metrics.
func measured(out *outcome, cfg runConfig, cs []*client, ch *churner, given [windows]float64, m0, m1 *runtime.MemStats) {
	res := out.res
	winSec := (cfg.measure / windows).Seconds()
	scales := windowScales(cs)
	res.set("runtime.machine_speed", median(scales[:]), windows)

	// Throughput per window, then the median window. A window in which the
	// machine ran at half its nominal speed, or had its processors half of
	// the time, counts double.
	var ops, objs, rawOps [windows]float64
	var total counts
	var measuredOps int64
	for _, c := range cs {
		for w := range windows {
			rawOps[w] += float64(c.winOps[w]) / winSec
			ops[w] += float64(c.winOps[w]) / winSec / scales[w] / given[w]
			objs[w] += float64(c.winObjects[w]) / winSec / scales[w] / given[w]
			measuredOps += c.winOps[w]
		}
		out.attempted += c.warmOps
		out.failed += c.failed
		if out.firstErr == nil {
			out.firstErr = c.firstErr
		}
		total.add(&c.counts)
	}
	out.attempted += measuredOps
	res.set("ops_per_s", median(ops[:]), int(measuredOps))
	res.set("objects_per_s", median(objs[:]), int(measuredOps))

	raw := fmt.Sprintf("raw workload=%s machine_speed=%.3f processors_given=%.3f ops_per_s=%.0f", cfg.w.name, median(scales[:]), median(given[:]), median(rawOps[:]))
	fmt.Printf("windows workload=%s processors_given=%.3f machine_speed=%.3f raw_ops_per_s=%.0f ops_per_s=%.0f\n", cfg.w.name, given, scales, rawOps, ops)
	latency := func(k opKind, p50, p99 string) {
		s := quantiles(cs, &scales, func(s sample) bool { return s.kind == uint8(k) })
		if s.n == 0 {
			return
		}
		res[p50] = value{v: s.p50, n: s.n, minWindow: s.minN}
		if p99 != "" {
			res[p99] = value{v: s.p99, n: s.n, minWindow: s.minN}
		}
		raw += fmt.Sprintf(" %s=%.3f", p50, s.rawP50)
	}
	latency(opLookup, "lookup_p50_us", "facade.lookup_us_p99")
	latency(opRange, "range_p50_us", "facade.range_us_p99")
	latency(opPublish, "facade.publish_us_p50", "facade.publish_us_p99")
	latency(opUnpublish, "facade.unpublish_us_p50", "")
	latency(kindPage, "session.page_us_p50", "session.page_us_p99")
	latency(opWalk, "session.walk_us_p50", "")
	latency(opTopK, "facade.topk_us_p50", "")
	// The figures as the clock read them, for whoever wants to undo the
	// scaling to nominal machine speed.
	fmt.Println(raw)

	res.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(measuredOps), int(measuredOps))
	res.set("bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(measuredOps), int(measuredOps))
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	res.set("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))

	res.set("core.delay_bound_violations", float64(total.delayViolations), int(measuredOps))
	if total.queries > 0 {
		q := float64(total.queries)
		res.set("core.hops_mean", float64(total.hops)/q, int(total.queries))
		res.set("core.msgs_per_query", float64(total.msgs)/q, int(total.queries))
		res.set("core.dest_peers_mean", float64(total.dests)/q, int(total.queries))
	}
	if cfg.w.shortcut > 0 {
		res.set("shortcut.hit_ratio", float64(total.shortcutHits)/float64(total.queries), int(total.queries))
		hit := quantiles(cs, &scales, func(s sample) bool { return s.kind == uint8(opLookup) && s.hit })
		miss := quantiles(cs, &scales, func(s sample) bool { return s.kind == uint8(opLookup) && !s.hit })
		res.set("shortcut.hit_us_p50", hit.p50, hit.n)
		res.set("shortcut.miss_us_p50", miss.p50, miss.n)
	}
	if cfg.w.frontier > 0 && total.ranges > 0 {
		res.set("session.frontier_hit_ratio", float64(total.frontierHits)/float64(total.ranges), int(total.ranges))
	}
	if total.laterPages > 0 {
		res.set("session.page_descents_saved_ratio", float64(total.laterPagesSaved)/float64(total.laterPages), int(total.laterPages))
	}

	if ch != nil {
		out.failed += ch.failed
		if out.firstErr == nil && ch.lastErr != nil {
			out.firstErr = fmt.Errorf("churn: %w", ch.lastErr)
		}
		var byKind [3][]float64
		var all, lag []float64
		for _, e := range ch.events {
			w := cs[0].windowOf(e.at)
			if w < 0 {
				continue
			}
			us := float64(e.ns) / 1e3 * scales[w]
			byKind[e.kind] = append(byKind[e.kind], us)
			all = append(all, us)
			lag = append(lag, float64(e.lagNs)/1e6)
		}
		for k, name := range [3]string{"facade.join_us_p50", "facade.leave_us_p50", "facade.fail_us_p50"} {
			if len(byKind[k]) > 0 {
				res.set(name, median(byKind[k]), len(byKind[k]))
			}
		}
		if len(all) > 0 {
			slices.Sort(all)
			slices.Sort(lag)
			res.set("facade.churn_us_p99", quantile(all, 0.99), len(all))
			res.set("facade.churn_lag_ms_p99", quantile(lag, 0.99), len(lag))
		}
		if n := len(all); n > 0 {
			res.set("fissione.rereplications_per_event", float64(ch.rereplications)/float64(n), n)
		}
	}
}
