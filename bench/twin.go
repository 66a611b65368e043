package main

import (
	"slices"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// twin is the stack armada.assemble wires under a Network, built from the
// same seed so that it routes exactly like the live network. The traced
// pass repeats on it what a facade call does inside. README.md lists the
// internal functions it may call.
type twin struct {
	net  *fissione.Network
	tree *naming.Tree
	eng  *core.Engine
	// lookupOpts and rangeOpts are the engine options the facade passes for
	// this workload's plain lookups and ranges.
	lookupOpts, rangeOpts []core.QueryOption
}

func newTwin(w *workload, in *inputs, seed int64) (*twin, error) {
	net, err := fissione.BuildRandom(32, w.peers, seed)
	if err != nil {
		return nil, err
	}
	if w.replicas != net.Replicas() {
		if err := net.SetReplicas(w.replicas); err != nil {
			return nil, err
		}
	}
	spaces := make([]naming.Space, len(w.attrs))
	for i, a := range w.attrs {
		spaces[i] = naming.Space{Low: a.Low, High: a.High}
	}
	tree, err := naming.NewTree(net.K(), spaces...)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(net, tree)
	if err != nil {
		return nil, err
	}
	t := &twin{net: net, tree: tree, eng: eng}
	if w.replicas > 1 {
		t.lookupOpts = []core.QueryOption{core.WithReadPolicy(core.ReadRoundRobin)}
	}
	t.rangeOpts = append(slices.Clone(t.lookupOpts), core.WithRunsOnly())
	for i := range in.preload {
		o := &in.preload[i]
		vals := o.vals[:len(w.attrs)]
		oid, err := tree.Hash(vals...)
		if err != nil {
			return nil, err
		}
		if _, err := net.PublishAt(oid, fissione.Object{Name: o.name, Values: slices.Clone(vals)}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// scan repeats the store scans of one query: the region on every
// destination peer, clipped to the peer's own region where replicas hold
// their neighbours' objects too. It returns the objects that matched.
func (t *twin) scan(region kautz.Region, dests []kautz.Str, box *naming.Box) (objects int) {
	k := t.net.K()
	for _, id := range dests {
		p, ok := t.net.Peer(id)
		if !ok {
			continue
		}
		r := region
		if t.net.Replicas() > 1 {
			own := kautz.Region{Low: kautz.MinExtend(id, k), High: kautz.MaxExtend(id, k)}
			if r, ok = region.Intersect(own); !ok {
				continue
			}
		}
		p.ScanRegion(r, "", func(so fissione.StoredObject) bool {
			if box == nil || box.Contains(so.Object.Values) {
				objects++
			}
			return true
		})
	}
	return objects
}

// matches counts the objects a twin range query returned.
func matches(r *core.RangeResult) (n int) {
	for _, run := range r.Runs {
		n += len(run)
	}
	return n
}
