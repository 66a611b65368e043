package fissione

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"armada/internal/kautz"
)

// Warm-start snapshots.
//
// A snapshot serializes the routing-relevant topology — the identifier
// cover in trie order, every peer's out-edges as trie positions, the
// replication degree, the epoch and the rng replay state — but no stored
// objects and no slot numbers. Loading reconstructs the network in O(file):
// identifiers are unpacked into one shared blob, each peer takes its trie
// position as its slot (a fresh dense numbering), and in-edges are
// recovered by inverting the out-edges (the lists are exact duals on a
// Kautz cover). The loaded network is byte-identical to the one the
// snapshot was taken from: same cover, same tables, same epoch, and —
// because the builder's rng is re-seeded and its join draws replayed — the
// same future join sequence. A fingerprint trailer makes any decode or
// inversion mismatch a load error rather than silent corruption.
//
// The trailer is a checksum, not a signature. The loader itself checks what
// is cheap — the cover is exact, no table outgrows a node, stored neighbors
// keep the neighborhood invariant — and takes the tables as written:
// re-deriving them is the work a snapshot skips, and Audit's job. A forged
// file can therefore load with tables its cover does not imply; mutating such
// a network returns ErrCorrupt (refreshTables), it does not crash.
//
// The rng replay covers join draws only; a network that consumed its own
// rng through RandomPeer(nil) will not replay those draws. Armada always
// passes an explicit rng there, so snapshots taken through the armada
// layer replay exactly.

// snapshotMagic identifies and versions the snapshot format.
const snapshotMagic = "ARMDSNP1"

// snapshotMaxPeers bounds the peer count a loader will accept, so a
// corrupt or hostile header cannot trigger an absurd allocation.
const snapshotMaxPeers = 1 << 28

// WriteSnapshot serializes the network's topology to w in the versioned
// binary snapshot format. Stored objects are not serialized. Safe to call
// while the topology is externally quiesced (the same exclusion every
// audit requires).
func (n *Network) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	writeUvarint(uint64(n.k))
	bw.Write(buf[:binary.PutVarint(buf[:], n.seed)])
	writeUvarint(n.joins)
	writeUvarint(uint64(n.replicas))
	writeUvarint(n.epoch.Load())
	writeUvarint(uint64(len(n.order)))
	for _, s := range n.order {
		writeUvarint(uint64(len(n.nodes[s].id)))
		bw.WriteString(string(n.nodes[s].id))
	}
	// Out-edges go out as trie positions, never as slots: the bytes do not
	// depend on the numbering churn left behind.
	for _, s := range n.order {
		out := n.Out(s)
		writeUvarint(uint64(len(out)))
		for _, nb := range out {
			writeUvarint(uint64(n.nodes[nb].pos))
		}
	}
	var fp [8]byte
	binary.LittleEndian.PutUint64(fp[:], snapshotCheck(n.Fingerprint(), n.seed, n.joins))
	bw.Write(fp[:])
	return bw.Flush()
}

// snapshotCheck folds the rng replay state into the topology fingerprint:
// the trailer must move if any serialized field does, and seed and join
// count are not part of Fingerprint (which digests topology only).
func snapshotCheck(fp uint64, seed int64, joins uint64) uint64 {
	fp ^= uint64(seed) * 0x9e3779b97f4a7c15
	fp ^= joins * 0xbf58476d1ce4e5b9
	return fp
}

// LoadSnapshot reconstructs a network from a snapshot written by
// WriteSnapshot. The result carries empty stores; replication degree,
// epoch and the builder rng state are restored, so subsequent joins,
// publishes and queries behave exactly as on the network the snapshot was
// taken from.
func LoadSnapshot(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fissione: snapshot: "+format, args...)
	}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, bad("reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, bad("bad magic %q (want %q)", magic, snapshotMagic)
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }

	ku, err := readUvarint()
	if err != nil {
		return nil, bad("reading k: %w", err)
	}
	k := int(ku)
	if k < 2 || k > kautz.MaxRankLen {
		return nil, bad("k=%d out of range [2, %d]", k, kautz.MaxRankLen)
	}
	seed, err := binary.ReadVarint(br)
	if err != nil {
		return nil, bad("reading seed: %w", err)
	}
	joins, err := readUvarint()
	if err != nil {
		return nil, bad("reading join count: %w", err)
	}
	replicasU, err := readUvarint()
	if err != nil {
		return nil, bad("reading replicas: %w", err)
	}
	replicas := int(replicasU)
	if replicas < 1 {
		return nil, bad("replication degree %d < 1", replicas)
	}
	epoch, err := readUvarint()
	if err != nil {
		return nil, bad("reading epoch: %w", err)
	}
	np, err := readUvarint()
	if err != nil {
		return nil, bad("reading peer count: %w", err)
	}
	if np < 3 || np > snapshotMaxPeers {
		return nil, bad("peer count %d out of range [3, %d]", np, snapshotMaxPeers)
	}
	npeers := int(np)

	// Identifiers: unpack into one shared blob, exactly as the batch
	// builder lays them out.
	// idLens grows as identifiers actually arrive, so a forged peer count
	// cannot size an allocation the input does not pay for.
	idLens := make([]int, 0, min(npeers, 1<<16))
	var blob strings.Builder
	idBuf := make([]byte, k)
	for i := 0; i < npeers; i++ {
		lu, err := readUvarint()
		if err != nil {
			return nil, bad("reading id %d length: %w", i, err)
		}
		l := int(lu)
		if l < 1 || l >= k {
			return nil, bad("id %d length %d out of range [1, %d]", i, l, k-1)
		}
		idLens = append(idLens, l)
		if _, err := io.ReadFull(br, idBuf[:l]); err != nil {
			return nil, bad("reading id %d: %w", i, err)
		}
		blob.Write(idBuf[:l])
	}
	packed := kautz.Str(blob.String())
	n := &Network{
		k:        k,
		nodes:    make([]node, npeers),
		order:    make([]int32, npeers),
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		joins:    joins,
		replicas: replicas,
	}
	n.epoch.Store(epoch)
	n.cover.reset(npeers)
	for i, l := range idLens {
		id := packed[:l]
		packed = packed[l:]
		if i > 0 && id <= n.nodes[i-1].id {
			return nil, bad("ids out of order at %d: %q after %q", i, id, n.nodes[i-1].id)
		}
		slot := int32(i)
		if err := n.cover.put(id, slot); err != nil {
			return nil, bad("id %d: %w", i, err)
		}
		n.nodes[i], n.order[i] = node{id: id, pos: slot, peer: newPeer(id)}, slot
	}

	// Out-edges arrive as trie positions, which are the slots. In-edges are
	// recovered by inversion once every out-list is in: iterating sources in
	// ascending order keeps every in-list sorted.
	add := func(s, nb int32) error {
		nd := &n.nodes[s]
		if nd.nbrLen == maxDegree {
			return bad("%q has more than %d neighbors", nd.id, maxDegree)
		}
		nd.nbr[nd.nbrLen] = nb
		nd.nbrLen++
		return nil
	}
	for i := range n.nodes {
		nd := &n.nodes[i]
		du, err := readUvarint()
		if err != nil {
			return nil, bad("reading out-degree of %q: %w", nd.id, err)
		}
		for j := uint64(0); j < du; j++ {
			xu, err := readUvarint()
			if err != nil {
				return nil, bad("reading out-edge %d of %q: %w", j, nd.id, err)
			}
			if xu >= np {
				return nil, bad("out-edge index %d of %q out of range", xu, nd.id)
			}
			if err := add(int32(i), int32(xu)); err != nil {
				return nil, err
			}
		}
		nd.outLen = nd.nbrLen
	}
	for u := range n.nodes {
		for _, v := range n.Out(int32(u)) {
			if err := add(v, int32(u)); err != nil {
				return nil, err
			}
		}
	}

	var fp [8]byte
	if _, err := io.ReadFull(br, fp[:]); err != nil {
		return nil, bad("reading fingerprint: %w", err)
	}
	want := binary.LittleEndian.Uint64(fp[:])
	if err := n.CheckCover(); err != nil {
		return nil, bad("cover check failed: %w", err)
	}
	if got := snapshotCheck(n.Fingerprint(), seed, joins); got != want {
		return nil, bad("fingerprint mismatch: %x != %x", got, want)
	}
	if err := n.CheckInvariant(); err != nil {
		return nil, bad("%w", err)
	}
	// Replay the builder's join draws so future joins continue the exact
	// sequence the snapshotted network would have produced — only now that
	// the trailer has vouched for joins: a corrupt count would spin here.
	space := int64(kautz.SpaceSize(k))
	for i := uint64(0); i < joins; i++ {
		n.rng.Int63n(space)
	}
	return n, nil
}
