package fissione

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"armada/internal/kautz"
)

// A record chunk leaves the arena when no stored slot refers to it — on any
// replica — and its memory is then the collector's: a record a reader kept
// pins it, through the chunk's number being reused for a fresh chunk, and a
// slot a reader kept does not.
func TestRecordChunksReclaimed(t *testing.T) {
	const k = 20
	n, err := BuildRandom(k, 64, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	next := 0
	publish := func() {
		name := fmt.Sprintf("o%04d", next)
		if _, err := n.PublishAt(kautz.Hash(name, k), Object{Name: name, Values: []float64{float64(next)}}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	publish()
	first := n.recs.at
	chunk := weak.Make(n.recs.table[0][first])
	for n.recs.at == first { // past the first chunk
		publish()
	}
	victims := storedIn(n, first)
	if len(victims) < 100 {
		t.Fatalf("%d objects in the first chunk, want a chunk's worth", len(victims))
	}
	reclaimed := func() bool {
		for range 3 {
			runtime.GC()
		}
		return chunk.Value() == nil
	}
	for _, so := range victims[1:] {
		if _, err := n.UnpublishAt(so.ObjectID, so.Object); err != nil {
			t.Fatal(err)
		}
	}
	if reclaimed() || n.recs.table[0][first] == nil {
		t.Fatal("the chunk left the arena while one of its objects is still stored")
	}
	rec, slot := held(n, victims[0])
	if _, err := n.UnpublishAt(victims[0].ObjectID, victims[0].Object); err != nil {
		t.Fatal(err)
	}
	if n.recs.table[0][first] != nil {
		t.Fatal("the arena kept a chunk no slot refers to")
	}
	for n.recs.at != first { // a fresh chunk under the released number
		publish()
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
	if reclaimed() {
		t.Fatal("the chunk was reclaimed while a reader holds a record in it")
	}
	if want := string(victims[0].ObjectID) + victims[0].Object.Name; rec != want {
		t.Fatalf("held record reads %q, want %q", rec, want)
	}
	rec = ""
	if !reclaimed() {
		t.Fatal("the chunk outlived every record pointing into it: a held slot pins it")
	}
	runtime.KeepAlive(slot)
}

// storedIn returns, once each, the objects whose records sit in chunk c —
// copied, so that none points into it.
func storedIn(n *Network, c uint32) (out []StoredObject) {
	seen := map[string]bool{}
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		p.ViewSpan(kautz.Span{Lo: 0, Hi: kautz.SpaceSize(n.K()) - 1}, func(r Run) {
			for i, s := range r.Idx {
				if rec := r.Rec(i); s.Ref>>refBits == c && !seen[rec] {
					seen[rec] = true
					rec = strings.Clone(rec)
					out = append(out, StoredObject{ObjectID: kautz.Str(rec[:n.K()]), Object: Object{Name: rec[n.K():], Values: []float64{r.Vals[i*r.Stride]}}})
				}
			}
		})
	}
	return out
}

// held returns the record and the slot of so from its owner's store, as a
// query's reader would keep them past the store lock.
func held(n *Network, so StoredObject) (rec string, slot Slot) {
	owner, _ := n.OwnerOf(so.ObjectID)
	p, _ := n.Peer(owner)
	p.ViewSpan(kautz.Span{Lo: kautz.Rank(so.ObjectID), Hi: kautz.Rank(so.ObjectID)}, func(r Run) {
		for i := range r.Idx {
			if r.Rec(i)[n.K():] == so.Object.Name {
				rec, slot = r.Rec(i), r.Idx[i]
			}
		}
	})
	return rec, slot
}
