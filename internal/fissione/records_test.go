package fissione

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"armada/internal/kautz"
)

// A record chunk is the collector's to reclaim: it lives exactly as long as
// some stored slot or some held copy of one points into it — on any replica —
// and no longer.
func TestRecordChunksReclaimed(t *testing.T) {
	const k = 20
	n, err := BuildRandom(k, 64, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	publish := func(i int) {
		name := fmt.Sprintf("o%04d", i)
		if _, err := n.PublishAt(kautz.Hash(name, k), Object{Name: name, Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	publish(0)
	chunk, base := weak.Make(unsafe.StringData(n.recs.chunk.String())), chunkBase(n)
	for i := 1; chunkBase(n) == base; i++ { // past the first chunk
		publish(i)
	}
	victims := storedIn(n, base)
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
	if reclaimed() {
		t.Fatal("the chunk was reclaimed while one of its objects is still stored")
	}
	held := heldSlot(n, victims[0])
	if _, err := n.UnpublishAt(victims[0].ObjectID, victims[0].Object); err != nil {
		t.Fatal(err)
	}
	if reclaimed() {
		t.Fatal("the chunk was reclaimed while a reader holds a slot into it")
	}
	if got := held.Rec[held.ILen:]; got != victims[0].Object.Name {
		t.Fatalf("held record reads %q, want %q", got, victims[0].Object.Name)
	}
	held = Slot{}
	if !reclaimed() {
		t.Fatal("the chunk outlived every slot pointing into it")
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

// chunkBase returns the address of the network's current record chunk.
func chunkBase(n *Network) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(n.recs.chunk.String())))
}

// storedIn returns, once each, the objects whose records sit in the chunk at
// base — copied, so that none points into it.
func storedIn(n *Network, base uintptr) (out []StoredObject) {
	seen := map[string]bool{}
	for _, id := range n.PeerIDs() {
		p, _ := n.Peer(id)
		for _, so := range p.AllObjects() {
			at := uintptr(unsafe.Pointer(unsafe.StringData(string(so.ObjectID))))
			if at < base || at >= base+recChunk || seen[so.Object.Name] {
				continue
			}
			seen[so.Object.Name] = true
			so.ObjectID, so.Object.Name = kautz.Str(strings.Clone(string(so.ObjectID))), strings.Clone(so.Object.Name)
			out = append(out, so)
		}
	}
	return out
}

// heldSlot copies out of the owner's store the slot of so, as a query keeps
// one past the store lock.
func heldSlot(n *Network, so StoredObject) (held Slot) {
	owner, _ := n.OwnerOf(so.ObjectID)
	p, _ := n.Peer(owner)
	p.ViewSpan(kautz.Span{Lo: kautz.Rank(so.ObjectID), Hi: kautz.Rank(so.ObjectID)}, func(r Run) {
		for _, s := range r.Idx {
			if s.Rec[s.ILen:] == so.Object.Name {
				held = s
			}
		}
	})
	return held
}
