package armada

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"armada/internal/kautz"
)

// stripPeers projects objects onto their ownership-independent fields:
// splits and migrations move objects between peers but must never change
// what a query returns or in what order.
func stripPeers(objs []Object) []Object {
	out := make([]Object, len(objs))
	for i, o := range objs {
		o.Peer = ""
		out[i] = o
	}
	return out
}

// ownerOf resolves the current owner of an ObjectID string.
func ownerOf(t *testing.T, net *Network, id string) string {
	t.Helper()
	owner, err := net.net.OwnerOf(kautz.Str(id))
	if err != nil {
		t.Fatalf("OwnerOf(%q): %v", id, err)
	}
	return string(owner)
}

// TestSplitRegionCascadeKeepsInvariant drives one spot of the namespace
// four splits deep. The targeted owner is soon no local length-minimum, so
// the invariant-restoring cascade must fire (extra > 0 across the runs),
// and after every split the audit and the query results must be exactly
// what they were — only the Peer fields may move.
func TestSplitRegionCascadeKeepsInvariant(t *testing.T) {
	net := pagedNetwork(t, 1500)
	ranges := []Range{{Low: 100, High: 900}}
	before, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Objects) < 500 {
		t.Fatalf("population too sparse: %d matches", len(before.Objects))
	}
	target := before.Objects[0].ID
	size := net.Size()
	splits, totalExtra, budgetStops := 0, 0, 0
	for i := 0; i < 4; i++ {
		// One deepening of the target region may exhaust the per-call
		// cascade budget; every cascade split it did perform is already
		// consistent, so retrying continues the work where it stopped.
		for attempt := 0; ; attempt++ {
			if attempt > 20 {
				t.Fatalf("deepening %d never completed within the retry budget", i+1)
			}
			owner := ownerOf(t, net, target)
			extra, err := net.splitRegion(owner)
			totalExtra += extra
			if err != nil {
				budgetStops++
				if err := net.Audit(); err != nil {
					t.Fatalf("budget-stopped split left the network inconsistent: %v", err)
				}
				continue
			}
			splits++
			break
		}
		if err := net.Audit(); err != nil {
			t.Fatalf("audit after deepening %d: %v", i+1, err)
		}
	}
	if totalExtra == 0 {
		t.Error("four stacked splits needed no cascade; the invariant cannot have been tested")
	}
	t.Logf("4 deepenings: %d cascade splits, %d budget-stopped attempts", totalExtra, budgetStops)
	if got, want := net.Size(), size+splits+totalExtra; got != want {
		t.Errorf("size = %d after %d splits with %d cascades, want %d", got, splits, totalExtra, want)
	}
	after, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPeers(after.Objects), stripPeers(before.Objects)) {
		t.Fatalf("query results changed across splits: %d objects before, %d after",
			len(before.Objects), len(after.Objects))
	}
}

// TestMigrateOwnershipConstantSize runs ownership migrations on a
// 2-replicated network: each moves capacity from a donor to a hot region
// at constant size (modulo cascades), keeps the replica audit clean, and
// leaves query results untouched.
func TestMigrateOwnershipConstantSize(t *testing.T) {
	net, err := NewNetwork(200, WithSeed(7), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pubs := make([]Publication, 800)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%04d", i), Values: []float64{rng.Float64() * 1000}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Low: 0, High: 1000}}
	before, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		hot := ownerOf(t, net, before.Objects[i*37].ID)
		donor := net.RandomPeer()
		for donor == hot {
			donor = net.RandomPeer()
		}
		size := net.Size()
		extra, err := net.migrateOwnership(donor, hot)
		if err != nil {
			t.Fatalf("migration %d (%q -> %q): %v", i+1, donor, hot, err)
		}
		if got, want := net.Size(), size+extra; got != want {
			t.Errorf("migration %d: size %d -> %d with %d cascades, want %d (constant modulo cascades)",
				i+1, size, got, extra, want)
		}
		if err := net.Audit(); err != nil {
			t.Fatalf("audit after migration %d: %v", i+1, err)
		}
	}
	after, err := net.Do(context.Background(), NewRange(ranges))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPeers(after.Objects), stripPeers(before.Objects)) {
		t.Fatalf("query results changed across migrations: %d objects before, %d after",
			len(before.Objects), len(after.Objects))
	}
}

func TestMigrateOwnershipValidation(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	p := net.RandomPeer()
	if _, err := net.migrateOwnership(p, p); err == nil {
		t.Error("donor == hot accepted")
	}
	if _, err := net.migrateOwnership(p, "no-such-peer"); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("unknown hot peer: err = %v, want ErrNoSuchPeer", err)
	}
}

// hammer issues narrow range queries over the low end of the space until
// check says the controller acted (or the deadline passes).
func hammer(t *testing.T, net *Network, check func(LoadReport) bool) LoadReport {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 40}})); err != nil {
				t.Fatal(err)
			}
		}
		rep, ok := net.LoadReport()
		if !ok {
			t.Fatal("LoadReport not available on a load-controlled network")
		}
		if check(rep) {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never acted: %+v", rep)
		}
	}
}

// TestLoadControlAutoSplit is the end-to-end path: a network built with
// WithLoadControl under a hammered hot range must auto-split it, grow the
// network, and keep the audit clean throughout.
func TestLoadControlAutoSplit(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(3), WithLoadControl(LoadControlConfig{
		SampleInterval: 2 * time.Millisecond,
		HalfLife:       10 * time.Millisecond,
		SplitThreshold: 50,
		Cooldown:       5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(9))
	pubs := make([]Publication, 400)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%04d", i), Values: []float64{rng.Float64() * 1000}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}

	rep := hammer(t, net, func(r LoadReport) bool { return r.AutoSplits > 0 })
	if net.Size() <= 60 {
		t.Errorf("size = %d after %d auto-splits, never grew", net.Size(), rep.AutoSplits)
	}
	if rep.TrackedRegions == 0 || len(rep.Hottest) == 0 {
		t.Errorf("report tracks nothing: %+v", rep)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after auto-splits: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestLoadControlMigration caps growth at one split, so continued heat
// must flow through the migration path: a cold donor leaves and the hot
// region splits, at constant network size.
func TestLoadControlMigration(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(4), WithLoadControl(LoadControlConfig{
		SampleInterval: 2 * time.Millisecond,
		HalfLife:       10 * time.Millisecond,
		SplitThreshold: 50,
		Cooldown:       5 * time.Millisecond,
		MaxGrowth:      1,
		Migrate:        true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rng := rand.New(rand.NewSource(2))
	pubs := make([]Publication, 400)
	for i := range pubs {
		pubs[i] = Publication{Name: fmt.Sprintf("obj-%04d", i), Values: []float64{rng.Float64() * 1000}}
	}
	if err := net.PublishBatch(pubs); err != nil {
		t.Fatal(err)
	}

	rep := hammer(t, net, func(r LoadReport) bool { return r.Migrations > 0 })
	if rep.AutoSplits == 0 {
		t.Errorf("migration fired before the pre-cap split: %+v", rep)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after migration: %v", err)
	}
}

// TestSessionFallsBackAfterLoadControlActions is the exactness property
// under controller interference: a controller split and a migration in the
// middle of a paged session walk, each hitting the owner under the cursor,
// must each force the next page off its (now stale) tile onto a fresh descent,
// and the concatenated pages from the cursor must equal a fresh unpaged walk —
// only Peer fields may differ.
func TestSessionFallsBackAfterLoadControlActions(t *testing.T) {
	net := pagedNetwork(t, 2000)
	ranges := []Range{{Low: 50, High: 950}}
	sess, err := net.OpenSession(NewRange(ranges, WithLimit(100)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	first, err := sess.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.NextOffsetID == "" {
		t.Fatal("walk ended on page 1; population too sparse for the test")
	}
	cursor := first.NextOffsetID
	var rest []Object

	// Controller action 1: split the owner under the cursor — the rename must
	// strand the tile the session kept for it.
	if _, err := net.splitRegion(ownerOf(t, net, cursor)); err != nil {
		t.Fatal(err)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after split: %v", err)
	}
	second, err := sess.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.DescentsSaved != 0 {
		t.Error("page after the split was positional; the split owner's tile should have been stale")
	}
	rest = append(rest, second.Objects...)

	// Controller action 2: migrate ownership toward the region under the
	// cursor; same contract.
	if second.NextOffsetID == "" {
		t.Fatal("walk ended on page 2; population too sparse for the test")
	}
	hot := ownerOf(t, net, second.NextOffsetID)
	donor := net.RandomPeer()
	for donor == hot {
		donor = net.RandomPeer()
	}
	if _, err := net.migrateOwnership(donor, hot); err != nil {
		t.Fatal(err)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("audit after migration: %v", err)
	}
	third, err := sess.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.DescentsSaved != 0 {
		t.Error("page after the migration was positional; the hot owner's tile should have been stale")
	}
	rest = append(rest, third.Objects...)

	walked, pages := sessionWalk(t, sess)
	rest = append(rest, walked...)
	for i, p := range pages {
		if p.Stats.DescentsSaved != 1 || p.Stats.Messages != len(p.Destinations) {
			t.Errorf("undisturbed page %d: %+v over %d owners, want a positional page of one message an owner", i+4, p.Stats, len(p.Destinations))
		}
	}

	fresh, err := net.Do(context.Background(), NewRange(ranges, WithOffsetID(cursor)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPeers(rest), stripPeers(fresh.Objects)) {
		t.Fatalf("session pages across controller actions (%d objects) diverged from a fresh walk from the same cursor (%d objects)",
			len(rest), len(fresh.Objects))
	}
}

// TestFrontierCacheInvalidatedByLoadControl: a cached owner must not
// survive a controller split of its region — the next repeat of the query
// re-descends and still returns the identical result.
func TestFrontierCacheInvalidatedByLoadControl(t *testing.T) {
	net, _ := cachedNetwork(t, 300, 11, WithShortcutTable(64))
	q := NewRange([]Range{{Low: 200, High: 320}})
	if _, err := net.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FrontierHits != 1 {
		t.Fatalf("repeat query missed the route cache: %+v", warm.Stats)
	}
	if _, err := net.splitRegion(ownerOf(t, net, warm.Objects[0].ID)); err != nil {
		t.Fatal(err)
	}
	after, err := net.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.FrontierHits != 0 {
		t.Error("query after the split was seeded at a stale owner")
	}
	if !reflect.DeepEqual(stripPeers(after.Objects), stripPeers(warm.Objects)) {
		t.Fatal("post-split result diverged from the pre-split result")
	}
}

func TestWithLoadControlValidation(t *testing.T) {
	bad := []LoadControlConfig{
		{SampleInterval: -time.Second},
		{HalfLife: -time.Second},
		{Cooldown: -time.Second},
		{SplitThreshold: -1},
		{MinRegionWidth: -1},
		{MaxGrowth: -1},
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(10, WithLoadControl(cfg)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLoadReportWithoutLoadControl(t *testing.T) {
	net, err := NewNetwork(20, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.LoadReport(); ok {
		t.Error("LoadReport ok on a network without load control")
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerLoadsCountDeliveries: the per-peer delivery counters PeerLoads
// exposes (on every network, load-controlled or not) move with query
// deliveries and are monotone.
func TestPeerLoadsCountDeliveries(t *testing.T) {
	net, err := NewNetwork(50, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := net.Publish(fmt.Sprintf("obj-%03d", i), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	total := func() int64 {
		var sum int64
		for _, pl := range net.PeerLoads() {
			sum += pl.Deliveries
		}
		return sum
	}
	before := total()
	for i := 0; i < 10; i++ {
		if _, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 500}})); err != nil {
			t.Fatal(err)
		}
	}
	after := total()
	if after <= before {
		t.Fatalf("delivery counters did not move: %d -> %d", before, after)
	}
}

// deliveriesMoved is how far each peer's delivery counter — what PeerLoads
// reports and the load controller samples — moved between two snapshots of
// an unchanged topology, by peer.
func deliveriesMoved(before, after []PeerLoad) map[string]int64 {
	moved := make(map[string]int64)
	for i, pl := range after {
		if d := pl.Deliveries - before[i].Deliveries; d != 0 {
			moved[pl.Peer] = d
		}
	}
	return moved
}

// TestStreamDeliveriesArePerPage: the delivery counters see a stream as the
// pages it runs, and a page moves only the counters of the owners it scanned.
// The first page is a descent and reaches every owner of the range once; each
// later page addresses the owner under its cursor and those its scan ran on
// into. So a drained stream moves an owner's counter by at most three — the
// fan-out, the page that scanned it, a page boundary inside it — however many
// pages it runs, where it used to move it once per page.
func TestStreamDeliveriesArePerPage(t *testing.T) {
	objects := 3*streamPage + 200
	net := buildQueryNet(t, 100, objects)
	pages := int64((objects + streamPage - 1) / streamPage)
	before := net.PeerLoads()
	seen := 0
	for _, err := range net.Stream(context.Background(), NewRange([]Range{{Low: 0, High: 1000}})) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen != objects {
		t.Fatalf("stream yielded %d objects, want %d", seen, objects)
	}
	after := net.PeerLoads()
	moved, total := deliveriesMoved(before, after), int64(0)
	for _, pl := range after {
		d := moved[pl.Peer]
		if total += d; d < 1 || d > 3 {
			t.Fatalf("peer %s: %d deliveries from one %d-page stream, want 1..3", pl.Peer, d, pages)
		}
	}
	// Every owner once by the fan-out, those past the first page once more by
	// the page that scanned them, and one per page boundary.
	if most := int64(2*len(after)) + pages; total > most {
		t.Fatalf("a %d-page stream over %d owners moved %d deliveries, want at most %d", pages, len(after), total, most)
	}
	if d := moved[after[len(after)-1].Peer]; d != 2 {
		t.Fatalf("the high end's owner saw %d deliveries, want 2: the first page's fan-out and the last page's scan", d)
	}
}

// TestSessionDeliveriesArePerOwnerScanned is the session twin, page by page at
// scan-wide's shape (~200 objects an owner, pages of 256): a later page sends
// at most three messages, lists exactly the owners it addressed, and moves
// their delivery counters by one each and no other counter at all.
func TestSessionDeliveriesArePerOwnerScanned(t *testing.T) {
	net := buildQueryNet(t, 100, 20000)
	sess, err := net.OpenSession(NewRange([]Range{{Low: 100, High: 600}}, WithLimit(256)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for page := 0; sess.More(); page++ {
		before := net.PeerLoads()
		res, err := sess.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		moved := deliveriesMoved(before, net.PeerLoads())
		if len(moved) != len(res.Destinations) {
			t.Fatalf("page %d moved the delivery counters of %v, its destinations are %v", page+1, moved, res.Destinations)
		}
		for _, d := range res.Destinations {
			if moved[d] != 1 {
				t.Fatalf("page %d: owner %s saw %d deliveries, want 1 (all: %v)", page+1, d, moved[d], moved)
			}
		}
		if s := res.Stats; page > 0 && (s.Messages > 3 || s.Messages != len(res.Destinations) || s.DestPeers != s.Messages || s.Delay != 1 || s.DescentsSaved != 1) {
			t.Fatalf("page %d: %+v over %v, want a positional page of at most 3 messages", page+1, s, res.Destinations)
		}
		if page > 40 {
			t.Fatal("walk does not end")
		}
	}
	if st := sess.Stats(); st.Pages < 30 {
		t.Fatalf("walk had only %d pages", st.Pages)
	}
}
