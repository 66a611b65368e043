package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"armada/internal/fissione"
	"armada/internal/kautz"
)

// TestSlotsInvisibleUnderChurn churns a network holding objects through a
// seeded interleaving of joins, leaves, crashes and region splits, so that
// its slots are recycled and far out of trie order, then reloads it through
// a snapshot — which numbers slots afresh, densely, in trie order — and
// requires the two to be indistinguishable: equal fingerprints and, over the
// golden query mix (lookups, PIRA or MIRA ranges, paged walks, floods,
// top-k, frontier-seeded and shortcut-routed queries), identical Stats,
// Destinations, results, cursors and hop sequences. Along the way the
// network audits clean and never holds more slots than its peak size:
// released slots are reused before the slot space grows.
func TestSlotsInvisibleUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		attrs, replicas int
		policies        []ReadPolicy
	}{
		{1, 1, []ReadPolicy{ReadPrimary}},
		{2, 1, []ReadPolicy{ReadPrimary}},
		{1, 2, []ReadPolicy{ReadRoundRobin, ReadLeastLoaded}},
		{2, 2, []ReadPolicy{ReadRoundRobin, ReadLeastLoaded}},
	} {
		name := fmt.Sprintf("attrs=%d/replicas=%d", tc.attrs, tc.replicas)
		seed := int64(1700 + 10*tc.attrs + tc.replicas)
		w := buildGoldenWorld(t, tc.attrs, tc.replicas, 300, 1500, seed)
		net := w.eng.Network()

		rng := rand.New(rand.NewSource(seed))
		peak := net.Size()
		for step := 1; step <= 2000; step++ {
			op := rng.Intn(4)
			if net.Size() < 150 {
				op = 0
			} else if net.Size() > 450 {
				op = 1 + rng.Intn(2)
			}
			var err error
			switch op {
			case 0:
				_, err = net.Join()
			case 1:
				err = net.Leave(net.RandomPeer(rng))
			case 2:
				err = net.FailAbrupt(net.RandomPeer(rng))
			case 3:
				// A cascade past its budget is refused, not an error here.
				net.SplitRegion(net.RandomPeer(rng))
			}
			if err != nil {
				t.Fatalf("%s: step %d (op %d): %v", name, step, op, err)
			}
			if peak = max(peak, net.Size()); net.Slots() > peak {
				t.Fatalf("%s: step %d: %d slots for a peak of %d peers", name, step, net.Slots(), peak)
			}
			if step%50 == 0 {
				if err := net.Audit(); err != nil {
					t.Fatalf("%s: step %d: %v", name, step, err)
				}
			}
		}

		// Reload through a snapshot and give the copy the same objects (a
		// snapshot carries none): every peer's primary run, re-published.
		var snap bytes.Buffer
		if err := net.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		fresh, err := fissione.LoadSnapshot(&snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := fresh.Fingerprint(), net.Fingerprint(); got != want {
			t.Fatalf("%s: reloaded fingerprint %x, churned %x", name, got, want)
		}
		for _, id := range net.PeerIDs() {
			p, _ := net.Peer(id)
			own := kautz.Region{Low: kautz.MinExtend(id, testK), High: kautz.MaxExtend(id, testK)}
			p.ScanRegion(own, "", func(so fissione.StoredObject) bool {
				if _, err := fresh.PublishAt(so.ObjectID, so.Object); err != nil {
					t.Fatal(err)
				}
				return true
			})
		}
		if err := fresh.Audit(); err != nil {
			t.Fatalf("%s: reloaded copy: %v", name, err)
		}
		eng, err := New(fresh, w.tree)
		if err != nil {
			t.Fatal(err)
		}

		for _, pol := range tc.policies {
			var churned, reloaded []goldenRecord
			goldenMix(t, &churned, name, w, pol, seed)
			goldenMix(t, &reloaded, name, goldenWorld{eng: eng, tree: w.tree, vals: w.vals}, pol, seed)
			if len(churned) != len(reloaded) {
				t.Fatalf("%s/%s: %d queries on the churned network, %d on its reload", name, pol, len(churned), len(reloaded))
			}
			for i := range churned {
				if !reflect.DeepEqual(churned[i], reloaded[i]) {
					t.Fatalf("%s/%s: query %d diverges:\n churned  %+v\n reloaded %+v", name, pol, i, churned[i], reloaded[i])
				}
			}
		}
	}
}
