package fissione

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"armada/internal/kautz"
)

// Warm-start snapshots.
//
// A snapshot serializes the routing-relevant topology — the identifier
// cover, every peer's out-edges, the replication degree, the epoch and the
// rng replay state — but no stored objects. Loading reconstructs the
// network in O(file): identifiers are unpacked into one shared blob,
// in-edges are recovered by inverting the out-edges (the lists are exact
// duals on a Kautz cover), and all routing tables are packed into one
// arena. The loaded network is byte-identical to the one the snapshot was
// taken from: same cover, same tables, same epoch, and — because the
// builder's rng is re-seeded and its join draws replayed — the same future
// join sequence. A fingerprint trailer makes any decode or inversion
// mismatch a load error rather than silent corruption.
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
	writeUvarint(uint64(len(n.ids)))
	for _, id := range n.ids {
		writeUvarint(uint64(len(id)))
		bw.WriteString(string(id))
	}
	for _, id := range n.ids {
		out := n.peers[id].Out()
		writeUvarint(uint64(len(out)))
		for _, nb := range out {
			idx := sort.Search(len(n.ids), func(i int) bool { return n.ids[i] >= nb })
			if idx >= len(n.ids) || n.ids[idx] != nb {
				return fmt.Errorf("fissione: snapshot: %q lists unknown neighbor %q", id, nb)
			}
			writeUvarint(uint64(idx))
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
	// lens grows as identifiers actually arrive, so a forged peer count
	// cannot size an allocation the input does not pay for.
	lens := make([]int, 0, min(npeers, 1<<16))
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
		lens = append(lens, l)
		if _, err := io.ReadFull(br, idBuf[:l]); err != nil {
			return nil, bad("reading id %d: %w", i, err)
		}
		blob.Write(idBuf[:l])
	}
	packed := blob.String()
	ids := make([]kautz.Str, npeers)
	peers := make(map[kautz.Str]*Peer, npeers)
	off := 0
	for i, l := range lens {
		id := kautz.Str(packed[off : off+l])
		off += l
		if !kautz.Valid(id) {
			return nil, bad("id %d (%q) is not a Kautz string", i, id)
		}
		if i > 0 && id <= ids[i-1] {
			return nil, bad("ids out of order at %d: %q after %q", i, id, ids[i-1])
		}
		ids[i] = id
		peers[id] = newPeer(id)
	}

	// Out-edges as indices; in-edges recovered by inversion (iterating
	// sources in ascending order keeps every in-list sorted). All tables
	// pack into one arena.
	outDeg := make([]int32, npeers)
	totalOut := 0
	outIdx := make([]uint32, 0, 4*npeers)
	for i := range ids {
		du, err := readUvarint()
		if err != nil {
			return nil, bad("reading out-degree of %q: %w", ids[i], err)
		}
		d := int(du)
		if d > npeers {
			return nil, bad("out-degree %d of %q exceeds peer count", d, ids[i])
		}
		outDeg[i] = int32(d)
		totalOut += d
		for j := 0; j < d; j++ {
			xu, err := readUvarint()
			if err != nil {
				return nil, bad("reading out-edge %d of %q: %w", j, ids[i], err)
			}
			if xu >= np {
				return nil, bad("out-edge index %d of %q out of range", xu, ids[i])
			}
			outIdx = append(outIdx, uint32(xu))
		}
	}
	inDeg := make([]int32, npeers)
	for _, v := range outIdx {
		inDeg[v]++
	}
	base := make([]int32, npeers+1)
	for i := 0; i < npeers; i++ {
		base[i+1] = base[i] + outDeg[i] + inDeg[i]
	}
	arena := make([]kautz.Str, base[npeers])
	cursor := make([]int32, npeers) // next in-slot per peer, relative to its in-section
	pos := 0
	for u := 0; u < npeers; u++ {
		for j := int32(0); j < outDeg[u]; j++ {
			v := outIdx[pos]
			arena[base[u]+j] = ids[v]
			arena[base[v]+outDeg[v]+cursor[v]] = ids[u]
			cursor[v]++
			pos++
		}
	}
	for i, id := range ids {
		peers[id].setTables(arena[base[i]:base[i+1]:base[i+1]], int(outDeg[i]))
	}

	var fp [8]byte
	if _, err := io.ReadFull(br, fp[:]); err != nil {
		return nil, bad("reading fingerprint: %w", err)
	}
	want := binary.LittleEndian.Uint64(fp[:])

	n := &Network{
		k:        k,
		peers:    peers,
		ids:      ids,
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		joins:    joins,
		replicas: replicas,
	}
	n.epoch.Store(epoch)
	if err := n.CheckCover(); err != nil {
		return nil, bad("cover check failed: %w", err)
	}
	if got := snapshotCheck(n.Fingerprint(), seed, joins); got != want {
		return nil, bad("fingerprint mismatch: %x != %x", got, want)
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
