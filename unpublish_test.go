package armada

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestUnpublishRemovesObject(t *testing.T) {
	net, err := NewNetwork(60, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := net.Publish(objName(i), float64(i*20)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 50 {
		t.Fatalf("published %d objects, query found %d", 50, len(res.Objects))
	}

	if err := net.Unpublish(objName(10), 200); err != nil {
		t.Fatalf("unpublish: %v", err)
	}
	res, err = net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 49 {
		t.Fatalf("after unpublish query found %d, want 49", len(res.Objects))
	}
	for _, o := range res.Objects {
		if o.Name == objName(10) {
			t.Fatalf("unpublished object %q still returned", o.Name)
		}
	}
}

func TestUnpublishErrors(t *testing.T) {
	net, err := NewNetwork(30, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish("x", 100); err != nil {
		t.Fatal(err)
	}
	// Absent name at an owned position.
	if err := net.Unpublish("y", 100); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unpublish absent name: %v, want ErrNoSuchObject", err)
	}
	// Same name, different values (distinct object identity).
	if err := net.Unpublish("x", 900); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unpublish wrong values: %v, want ErrNoSuchObject", err)
	}
	// Arity mismatch.
	if err := net.Unpublish("x", 1, 2); !errors.Is(err, ErrBadArity) {
		t.Fatalf("unpublish bad arity: %v, want ErrBadArity", err)
	}
	// Double unpublish.
	if err := net.Unpublish("x", 100); err != nil {
		t.Fatal(err)
	}
	if err := net.Unpublish("x", 100); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double unpublish: %v, want ErrNoSuchObject", err)
	}
}

func TestUnpublishDuplicatesOneAtATime(t *testing.T) {
	net, err := NewNetwork(30, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Publish("dup", 500); err != nil {
		t.Fatal(err)
	}
	if err := net.Publish("dup", 500); err != nil {
		t.Fatal(err)
	}
	if err := net.Unpublish("dup", 500); err != nil {
		t.Fatal(err)
	}
	res, err := net.Do(context.Background(), NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 {
		t.Fatalf("after removing one duplicate, query found %d, want 1", len(res.Objects))
	}
	if err := net.Unpublish("dup", 500); err != nil {
		t.Fatal(err)
	}
	if err := net.Unpublish("dup", 500); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("third unpublish: %v, want ErrNoSuchObject", err)
	}
}

func TestUnpublishExact(t *testing.T) {
	net, err := NewNetwork(30, WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.PublishExact("doc"); err != nil {
		t.Fatal(err)
	}
	lr, err := net.Do(context.Background(), NewLookup("doc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Objects) != 1 {
		t.Fatalf("lookup found %d objects, want 1", len(lr.Objects))
	}
	if err := net.UnpublishExact("doc"); err != nil {
		t.Fatal(err)
	}
	lr, err = net.Do(context.Background(), NewLookup("doc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Objects) != 0 {
		t.Fatalf("lookup after unpublish found %d objects, want 0", len(lr.Objects))
	}
	if err := net.UnpublishExact("doc"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unpublish absent exact: %v, want ErrNoSuchObject", err)
	}
}

// A Result owns what it returned: its objects' IDs and names are halves of
// the stored records, which are immutable, and their values its own copy. So
// every surface's result reads the same after each of its objects is
// unpublished, every peer that served one has left, and the space is refilled
// with other objects — which shifts, overwrites and re-lays the columns the
// values were copied from.
func TestResultOutlivesStore(t *testing.T) {
	ctx := context.Background()
	net := buildQueryNet(t, 40, 400, WithReplication(2))
	defer net.Close()
	if err := net.PublishExact("report.pdf"); err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Low: 300, High: 600}}
	type kept struct {
		name string
		objs []Object
		want []Object // a deep copy taken when the result was fresh
	}
	var results []kept
	keep := func(name string, q Query) {
		res, err := net.Do(ctx, q)
		if err != nil || len(res.Objects) == 0 {
			t.Fatalf("%s: %d objects, %v", name, len(res.Objects), err)
		}
		want := make([]Object, len(res.Objects))
		for i, o := range res.Objects {
			want[i] = Object{Name: strings.Clone(o.Name), ID: strings.Clone(o.ID), Peer: strings.Clone(o.Peer), Values: slices.Clone(o.Values)}
		}
		results = append(results, kept{name, res.Objects, want})
	}
	keep("range", NewRange(ranges))
	keep("page", NewRange(ranges, WithLimit(30)))
	keep("top-k", NewRange(ranges, WithTopK(20)))
	keep("lookup", NewValueLookup([]float64{500}))
	keep("exact lookup", NewLookup("report.pdf"))

	served := map[string]bool{}
	for _, r := range results {
		for _, o := range r.objs {
			served[o.Peer] = true
		}
	}
	all, err := net.Do(ctx, NewRange([]Range{{Low: 0, High: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range all.Objects {
		if err := net.Unpublish(o.Name, o.Values...); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.UnpublishExact("report.pdf"); err != nil {
		t.Fatal(err)
	}
	for id := range served {
		if err := net.Leave(id); err != nil && !errors.Is(err, ErrNoSuchPeer) { // an earlier leave may have renamed it
			t.Fatal(err)
		}
	}
	for i := 0; i < 800; i++ { // other names, other values, and value-less objects among them
		if err := net.Publish(fmt.Sprintf("refill-%03d", i), float64(i)*1.25); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if err := net.PublishExact(fmt.Sprintf("refill-exact-%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	for _, r := range results {
		if !reflect.DeepEqual(r.objs, r.want) {
			t.Errorf("%s: the result changed under the store:\n got %v\nwant %v", r.name, r.objs, r.want)
		}
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}
