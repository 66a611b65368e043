package main

import (
	"math"
	"math/rand"
	"strconv"

	"armada"
)

// opKind is one kind of client operation; sample kinds extend it with
// kindPage, one Session.Next call inside a walk.
type opKind uint8

const (
	opLookup opKind = iota
	opRange
	opWalk
	opTopK
	opPublish
	opUnpublish
	nOpKinds
	kindPage = nOpKinds
	nKinds   = nOpKinds + 1
)

var kindNames = [nKinds]string{"lookup", "range", "walk", "topk", "publish", "unpublish", "page"}

// churnRates are topology events per second and the band the churn
// goroutine holds the network size in.
type churnRates struct {
	join, leave, fail float64
	sizeLo, sizeHi    int
}

func (c churnRates) total() float64 { return c.join + c.leave + c.fail }

// workload is one benchmark workload: the network it builds, the objects it
// preloads and the operation mix its clients draw from. README.md says why
// each exists.
type workload struct {
	name, why string
	peers     int
	replicas  int
	attrs     []armada.AttributeSpace
	objects   int
	shortcut  int // WithShortcutTable capacity, 0 = none
	frontier  int // WithFrontierCache capacity, 0 = none
	// mix holds the percentage of draws per operation kind.
	mix [nOpKinds]int
	// widthLo and widthHi bound a range's width per attribute, as a share
	// of the attribute space.
	widthLo, widthHi float64
	// catalogue > 0 draws lookup keys Zipf(zipfS) from that many fixed
	// preloaded points, and range keys Zipf(zipfS) from grid fixed ranges;
	// otherwise keys are uniform.
	catalogue, grid int
	zipfS           float64
	pageSize, topK  int
	churn           churnRates
	// tracedOps is the length of the traced pass; churnEvery > 0 puts one
	// topology event after that many traced operations.
	tracedOps, churnEvery int
	// obsProbe adds the observability on-cost probe to the traced pass.
	obsProbe bool
}

var (
	oneAttr  = []armada.AttributeSpace{{Low: 0, High: 1000}}
	twoAttrs = []armada.AttributeSpace{{Low: 0, High: 1000}, {Low: 0, High: 100}}
)

// workloads is the single table behind the command, BENCHMARK.json and
// README.md.
var workloads = []*workload{
	{
		name:  "descent-cold",
		why:   "10k peers, no caches, narrow uniform queries: every query pays the full ~11-hop descent and scans almost nothing, so core does the work",
		peers: 10000, replicas: 1, attrs: oneAttr, objects: 20000,
		mix:     [nOpKinds]int{opLookup: 50, opRange: 40, opPublish: 5, opUnpublish: 5},
		widthLo: 0.0005, widthHi: 0.005,
		tracedOps: 20000, obsProbe: true,
	},
	{
		name:  "scan-wide",
		why:   "500 peers, 100k objects, 2-10% ranges, paged walks and top-k: store scans, result copy and GC do the work, the descent is noise",
		peers: 500, replicas: 1, attrs: oneAttr, objects: 100000,
		mix:     [nOpKinds]int{opRange: 45, opWalk: 20, opTopK: 10, opLookup: 15, opPublish: 5, opUnpublish: 5},
		widthLo: 0.02, widthHi: 0.10,
		pageSize: 256, topK: 10,
		tracedOps: 2000,
	},
	{
		name:  "warm-route",
		why:   "2k peers, shortcut table and frontier cache, Zipf keys, join/leave churn: most queries are cache-served in one hop and churn invalidates the caches",
		peers: 2000, replicas: 1, attrs: oneAttr, objects: 20000,
		shortcut: 512, frontier: 256,
		mix:     [nOpKinds]int{opLookup: 50, opRange: 45, opPublish: 5},
		widthLo: 0.001, widthHi: 0.01,
		catalogue: 4096, grid: 256, zipfS: 1.3,
		churn:     churnRates{join: 20, leave: 20, sizeLo: 1800, sizeHi: 2200},
		tracedOps: 20000, churnEvery: 500,
	},
	{
		name:  "churn-write",
		why:   "1k peers, 2 replicas, 2 attributes, write-heavy mix under join/leave/fail churn: replica fan-out, repair and the topology lock under a steady writer",
		peers: 1000, replicas: 2, attrs: twoAttrs, objects: 20000,
		mix:     [nOpKinds]int{opPublish: 30, opUnpublish: 25, opLookup: 20, opRange: 25},
		widthLo: 0.005, widthHi: 0.05,
		churn:     churnRates{join: 40, leave: 30, fail: 10, sizeLo: 800, sizeHi: 1200},
		tracedOps: 20000, churnEvery: 250,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// toy shrinks a workload for the smoke test: same shape, a fraction of the
// peers, objects and traced operations.
func (w *workload) toy() *workload {
	t := *w
	t.peers = max(w.peers/20, 64)
	t.objects = max(w.objects/20, 1000)
	t.catalogue = w.catalogue / 8
	t.tracedOps = 300
	t.churnEvery = min(w.churnEvery, 20)
	if w.churn.total() > 0 {
		t.churn.sizeLo = t.peers * 9 / 10
		t.churn.sizeHi = t.peers * 11 / 10
	}
	return &t
}

// networkOptions are the NewNetwork options the workload's network is
// built with.
func (w *workload) networkOptions(seed int64) []armada.Option {
	opts := []armada.Option{armada.WithSeed(seed), armada.WithAttributes(w.attrs...)}
	if w.replicas > 1 {
		opts = append(opts, armada.WithReplication(w.replicas))
	}
	if w.shortcut > 0 {
		opts = append(opts, armada.WithShortcutTable(w.shortcut))
	}
	if w.frontier > 0 {
		opts = append(opts, armada.WithFrontierCache(w.frontier))
	}
	return opts
}

// object is one published object: at most two attribute values.
type object struct {
	name string
	vals [2]float64
}

// fixedRange is one range of a workload's Zipf range grid.
type fixedRange struct{ lo, hi [2]float64 }

// ranges converts the box to the facade's query ranges.
func (r *fixedRange) ranges(attrs int) []armada.Range {
	out := make([]armada.Range, attrs)
	for a := range out {
		out[a] = armada.Range{Low: r.lo[a], High: r.hi[a]}
	}
	return out
}

// inputs are the seed-derived inputs every client of a run shares and none
// changes: the preloaded objects, and the key catalogue and range grid of a
// skewed workload. Preloaded objects are never unpublished, which is what
// lets the inline oracle checks run without a lock.
type inputs struct {
	w         *workload
	preload   []object
	catalogue []int32 // Zipf rank -> preload index
	grid      []fixedRange
	oracle    *preloadOracle
}

// quantum spaces attribute values a millionth apart. The naming tree's
// leaves are narrower than that on a single attribute, so distinct values
// get distinct ObjectIDs and a value lookup returns exactly the objects
// with that value.
const quantum = 1e-6

func randValue(rng *rand.Rand, s armada.AttributeSpace) float64 {
	steps := int64((s.High - s.Low) / quantum)
	return s.Low + float64(rng.Int63n(steps))*quantum
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	in := &inputs{w: w, preload: make([]object, w.objects)}
	// Preloaded values are uniform but stratified: every attribute space is
	// cut into one stratum per object and each object falls into a stratum
	// of its own, in shuffled order. A range then holds the same number of
	// preloaded objects, give or take one, whatever the seed.
	n := float64(w.objects)
	for a, s := range w.attrs {
		for i, stratum := range rng.Perm(w.objects) {
			v := s.Low + (float64(stratum)+rng.Float64())/n*(s.High-s.Low)
			in.preload[i].vals[a] = math.Floor(v/quantum) * quantum
		}
	}
	for i := range in.preload {
		in.preload[i].name = "p" + strconv.Itoa(i)
	}
	if w.catalogue > 0 {
		in.catalogue = make([]int32, w.catalogue)
		for i, p := range rng.Perm(w.objects)[:w.catalogue] {
			in.catalogue[i] = int32(p)
		}
		// A grid range's width depends on its Zipf rank alone, spread over
		// the band by the golden ratio; only its position is drawn. Rank 0
		// gets a quarter of all range queries, so a drawn width would make
		// the whole run as cheap or as dear as that one draw.
		in.grid = make([]fixedRange, w.grid)
		for i := range in.grid {
			_, frac := math.Modf((float64(i) + 0.5) * math.Phi)
			in.grid[i] = w.rangeAt(rng, [2]float64{frac, frac})
		}
	}
	in.oracle = newPreloadOracle(in.preload, len(w.attrs))
	return in
}

// randRange draws one range per attribute, uniform in position, its width
// uniform in the workload's band.
func (w *workload) randRange(rng *rand.Rand) fixedRange {
	return w.rangeAt(rng, [2]float64{rng.Float64(), rng.Float64()})
}

// rangeAt draws the position of a range whose width on each attribute sits
// at share frac of the workload's band.
func (w *workload) rangeAt(rng *rand.Rand, frac [2]float64) fixedRange {
	var r fixedRange
	for a, s := range w.attrs {
		span := s.High - s.Low
		width := span * (w.widthLo + frac[a]*(w.widthHi-w.widthLo))
		r.lo[a] = s.Low + rng.Float64()*(span-width)
		r.hi[a] = r.lo[a] + width
	}
	return r
}

// op is one generated client operation.
type op struct {
	kind   opKind
	target int32 // lookup: index of the preloaded object looked up
	r      fixedRange
	obj    object // publish, unpublish
	issuer uint32 // picks the issuing peer on churn-free workloads
}

// generator produces one client's operation stream from its seed alone. It
// owns the names the client publishes, so a client unpublishes only what it
// published itself and the oracle stays exact under several clients.
type generator struct {
	in      *inputs
	rng     *rand.Rand
	zipfKey *rand.Zipf
	zipfRng *rand.Zipf
	cum     [nOpKinds]int
	prefix  string
	nameBuf []byte
	seq     int
	// live are the client's own published objects; ownCap bounds them, so
	// a mix that publishes more than it unpublishes holds the store steady
	// after warm-up instead of growing it for the whole run.
	live   []object
	ownCap int
}

func newGenerator(in *inputs, seed int64, client int) *generator {
	g := &generator{
		in:     in,
		rng:    rand.New(rand.NewSource(seed*104729 + int64(client)*7907 + 1)),
		prefix: "c" + strconv.Itoa(client) + "-",
		ownCap: max(in.w.objects/20, 16),
	}
	sum := 0
	for k, share := range in.w.mix {
		sum += share
		g.cum[k] = sum
	}
	if in.w.catalogue > 0 {
		g.zipfKey = rand.NewZipf(g.rng, in.w.zipfS, 1, uint64(len(in.catalogue)-1))
		g.zipfRng = rand.NewZipf(g.rng, in.w.zipfS, 1, uint64(len(in.grid)-1))
	}
	return g
}

// next draws the following operation.
func (g *generator) next() op {
	draw := g.rng.Intn(g.cum[nOpKinds-1])
	kind := opKind(0)
	for draw >= g.cum[kind] {
		kind++
	}
	switch {
	case kind == opUnpublish && len(g.live) == 0:
		kind = opPublish
	case kind == opPublish && len(g.live) >= g.ownCap:
		kind = opUnpublish
	}
	o := op{kind: kind, issuer: g.rng.Uint32()}
	switch kind {
	case opLookup:
		if g.zipfKey != nil {
			o.target = g.in.catalogue[g.zipfKey.Uint64()]
		} else {
			o.target = int32(g.rng.Intn(len(g.in.preload)))
		}
	case opRange, opWalk, opTopK:
		if g.zipfRng != nil {
			o.r = g.in.grid[g.zipfRng.Uint64()]
		} else {
			o.r = g.in.w.randRange(g.rng)
		}
	case opPublish:
		g.nameBuf = append(g.nameBuf[:0], g.prefix...)
		g.nameBuf = strconv.AppendInt(g.nameBuf, int64(g.seq), 10)
		g.seq++
		o.obj.name = string(g.nameBuf)
		for a, s := range g.in.w.attrs {
			o.obj.vals[a] = randValue(g.rng, s)
		}
		g.live = append(g.live, o.obj)
	case opUnpublish:
		i := g.rng.Intn(len(g.live))
		o.obj = g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	return o
}
