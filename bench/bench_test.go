package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestManifest pins BENCHMARK.json to the command's own tables: the file
// is what -manifest prints, byte for byte.
func TestManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifest()) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go and workload.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

// streamHash runs a client's generator for n operations and hashes every
// field of every operation.
func streamHash(t *testing.T, in *inputs, seed int64, client, n int) uint64 {
	t.Helper()
	g := newGenerator(in, seed, client)
	h := fnv.New64a()
	for range n {
		o := g.next()
		fmt.Fprintf(h, "%d %d %v %q %v %d\n", o.kind, o.target, o.r, o.obj.name, o.obj.vals, o.issuer)
		if (o.kind == opPublish || o.kind == opUnpublish) && !strings.HasPrefix(o.obj.name, g.prefix) {
			t.Fatalf("client %d writes %q, a name outside its own prefix %q", client, o.obj.name, g.prefix)
		}
	}
	return h.Sum64()
}

// TestGeneratorSeeded checks that a seed fixes a client's operation stream,
// that the next seed and the other client get different ones, and that a
// client only ever unpublishes names it published itself.
func TestGeneratorSeeded(t *testing.T) {
	for _, w := range workloads {
		w = w.toy()
		const n = 5000
		in := newInputs(w, 7)
		for client := range clients {
			a := streamHash(t, in, 7, client, n)
			if b := streamHash(t, newInputs(w, 7), 7, client, n); a != b {
				t.Errorf("%s client %d: same seed, different streams", w.name, client)
			}
			if b := streamHash(t, newInputs(w, 8), 8, client, n); a == b {
				t.Errorf("%s client %d: seed+1 gives the same stream", w.name, client)
			}
		}
		if streamHash(t, in, 7, 0, n) == streamHash(t, in, 7, 1, n) {
			t.Errorf("%s: both clients draw the same stream", w.name)
		}
	}
}

// TestSmoke runs every workload at toy size, measured phase, traced pass and
// verification included, and checks that each run reports exactly the
// metrics BENCHMARK.json declares, finite and in the declared unit.
func TestSmoke(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &declared); err != nil {
		t.Fatal(err)
	}
	if len(declared.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(declared.Workloads), len(workloads))
	}
	for _, dw := range declared.Workloads {
		w := workloadByName(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the command does not have", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			out, err := runWorkload(runConfig{
				w: w.toy(), seed: 3, measure: 300 * time.Millisecond,
				trace: true, outDir: t.TempDir(), toy: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%d of %d operations failed, first: %v", out.failed, out.attempted, out.firstErr)
			}
			for _, defs := range [][]metricDef{declared.EndToEnd, declared.PerLayer} {
				line, err := report(w, out, defs)
				if err != nil {
					t.Fatal(err)
				}
				var result struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &result); err != nil {
					t.Fatal(err)
				}
				if !result.Correct || len(result.Metrics) != len(defs) {
					t.Fatalf("result correct=%v with %d metrics, want %d", result.Correct, len(result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := result.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					case d.Bound > 0 && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, m.Value)
					}
				}
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the benchmark contract's spread is defined by.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
