package fissione

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"

	"armada/internal/kautz"
)

// Batch construction.
//
// Growing a network by sequential Join calls maintains the trie order and
// repairs routing tables after every single split. The order maintenance
// is an O(N) memmove per join — O(N²) for a build — and the per-split table
// refreshes serialize on one goroutine. BuildRandom runs the exact same join
// decision sequence (one kautz.Random draw, owner lookup, walk to a local
// length minimum, split) but defers all derived state: the trie order is
// read off the cover once at the end — the cover itself takes each split as
// it happens, which is what lets every join ask who owns its target — and
// every routing table is recomputed once, in parallel, from the final
// cover. Because the walk consults tables derived from the live cover —
// which equal the incrementally-maintained ones at every step — the batch
// build is byte-identical to the sequential one, slot numbering included
// (pinned by TestBatchBuildMatchesSequential).

// BuildRandom creates a network of size peers grown by random joins: each
// join hashes to a random namespace position and splits the local
// length-minimum peer there, as FISSIONE joins do. It grows through the
// batch-construction path above, byte-identical to sequential joins with the
// same seed.
func BuildRandom(k, size int, seed int64) (*Network, error) {
	n, err := New(k, seed)
	if err != nil {
		return nil, err
	}
	count := max(0, size-n.Size())
	n.nodes = slices.Grow(n.nodes, count)
	for i := range count {
		target := kautz.Random(n.rng, n.k)
		n.joins++
		owner, err := n.ownerSlot(target)
		if err == nil {
			// divide is split without the derived state this path defers.
			_, err = n.divide(n.walkToLocalMin(owner, true))
		}
		if err != nil {
			return nil, fmt.Errorf("batch join %d: %w", i, err)
		}
	}
	if err := cmp.Or(n.rebuildIndex(), n.refreshAllParallel()); err != nil {
		return nil, err
	}
	n.epoch.Add(uint64(count))
	return n, nil
}

// rebuildIndex reconstitutes the trie order — the cover's in-order walk —
// then compacts every identifier's bytes into a single blob: each peer's id
// and its node's alias one backing array, so the per-identifier allocator
// rounding the incremental path pays disappears. The cover is registered
// afresh in that order, which lays its inner nodes out in preorder: the last
// levels of a walk then share cache lines.
func (n *Network) rebuildIndex() (err error) {
	order, total := n.cover.appendUnder(make([]int32, 0, len(n.nodes)-len(n.free)), 0, "", noSlot), 0
	for _, s := range order {
		total += len(n.nodes[s].id)
	}

	var blob strings.Builder
	blob.Grow(total)
	for _, s := range order {
		blob.WriteString(string(n.nodes[s].id))
	}
	packed := kautz.Str(blob.String())

	n.cover.reset(len(order))
	for i, s := range order {
		nd := &n.nodes[s]
		id := packed[:len(nd.id)]
		packed = packed[len(id):]
		nd.id, nd.peer.id, nd.pos = id, id, int32(i)
		err = cmp.Or(err, n.cover.put(id, s))
	}
	n.order = order
	return err
}

// refreshAllParallel recomputes every peer's routing table from the
// current cover, sharding the trie order across GOMAXPROCS goroutines.
// Derivation only reads the cover and writes the shard's own nodes' tables,
// so shards are independent. It returns the shards' first errors joined.
func (n *Network) refreshAllParallel() error {
	workers := max(1, min(runtime.GOMAXPROCS(0), len(n.order)/64))
	chunk := (len(n.order) + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w*chunk < len(n.order); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range n.order[w*chunk : min((w+1)*chunk, len(n.order))] {
				if err := n.refreshTables(s); errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Fingerprint returns an FNV-1a digest of the routing-relevant topology:
// k, replication degree, epoch and every peer identifier with its out- and
// in-neighbor lists, by name, in trie order — slot numbering does not
// enter. Two networks with equal fingerprints have byte-identical covers
// and tables; the batch builder and the snapshot loader are pinned to the
// sequential-join path by comparing fingerprints.
func (n *Network) Fingerprint() uint64 {
	h := fnv.New64a()
	var num [8]byte
	writeNum := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	writeID := func(s int32) {
		id := n.nodes[s].id
		writeNum(uint64(len(id)))
		h.Write([]byte(id))
	}
	writeNum(uint64(n.k))
	writeNum(uint64(n.replicas))
	writeNum(n.epoch.Load())
	writeNum(uint64(len(n.order)))
	for _, s := range n.order {
		writeID(s)
		for _, list := range [2][]int32{n.Out(s), n.In(s)} {
			writeNum(uint64(len(list)))
			for _, nb := range list {
				writeID(nb)
			}
		}
	}
	return h.Sum64()
}
