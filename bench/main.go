// Command bench is the repository's benchmark: four workloads against the
// public armada facade, wall-clock end-to-end metrics, and a traced pass
// whose per-layer numbers are measured from out here, around the calls into
// each layer. BENCHMARK.json at the repository root describes it to the
// driver; README.md describes it to people.
//
//	bash bench/run.sh --workload descent-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --trace 1 --out DIR
//	bash bench/run.sh --repeat 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the network, the operation streams and the churn schedule")
		seconds = flag.Int("seconds", runSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 adds the traced pass and reports the per-layer metrics")
		outDir  = flag.String("out", ".bench_build/traces", "directory the traced pass writes trace-<workload>.json to")
		repeat  = flag.Int("repeat", 0, "run that many sets of every workload in child processes and print each end-to-end metric's spread")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *mani {
		os.Stdout.Write(manifest())
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// Two client goroutines on two processors, whatever the machine has.
	runtime.GOMAXPROCS(clients)

	run := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	if *repeat > 0 {
		if err := repeatSets(run, *repeat, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, w := range run {
		out, err := runWorkload(runConfig{
			w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, outDir: *outDir,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		// A traced run prints both lists; its result object, the line the
		// driver reads, carries the per-layer one.
		line, err := report(w, out, endToEnd)
		if err == nil && *trace == 1 {
			line, err = report(w, out, perLayer)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("counts workload=%s ops_attempted=%d ops_failed=%d\n", w.name, out.attempted, out.failed)
		if out.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed, first: %v\n", w.name, out.failed, out.attempted, out.firstErr)
			ok = false
		}
		fmt.Println(line)
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints every metric of defs by name, with its unit and sample
// count, and returns the run's result object: the line the driver reads.
// A per-layer metric the workload does not exercise reads 0; an end-to-end
// metric must have been measured.
func report(w *workload, out *outcome, defs []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := out.res[d.Name]
		if !ok && d.Bound > 0 {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return "", fmt.Errorf("metric %s is not finite", d.Name)
		}
		fmt.Printf("metric workload=%s name=%s value=%s unit=%s samples=%d",
			w.name, d.Name, strconv.FormatFloat(v.v, 'f', -1, 64), d.Unit, v.n)
		if v.minWindow > 0 {
			fmt.Printf(" smallest_window=%d", v.minWindow)
		}
		fmt.Println()
		result.Metrics[d.Name] = metric{v.v, d.Unit}
	}
	line, err := json.Marshal(result)
	return string(line), err
}

// repeatSets runs n sets of the given workloads, each run in a child
// process with its own seed exactly as the driver runs them, and prints for
// every end-to-end metric the median, the quartiles, the interquartile
// range and the full range as shares of the median, flagging a metric whose
// interquartile share exceeds its bound.
func repeatSets(run []*workload, n int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	printEnv()
	fmt.Printf("\n%d sets, seeds %d-%d, %d s measured per run\n", n, seed, seed+int64(n)-1, seconds)
	for _, w := range run {
		values := map[string][]float64{}
		for i := range n {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var result struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(lines[len(lines)-1], &result); err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, i, err)
			}
			for name, m := range result.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("\n### %s\n\n| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound | |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		for _, d := range endToEnd {
			vs := values[d.Name]
			q1, q2, q3 := quartiles(vs)
			iqr, full := (q3-q1)/q2, (slices.Max(vs)-slices.Min(vs))/q2
			flag := ""
			if iqr > d.Bound && d.Name != "setup_s" {
				flag = "over bound"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, q2, q1, q3, 100*iqr, 100*full, 100*d.Bound, flag)
		}
	}
	return nil
}

// printEnv stamps the environment a baseline was measured in.
func printEnv() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	fmt.Printf("go: %s %s/%s\ncpus: %d (%s)\nGOMAXPROCS: %d\nGOGC: %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpu, runtime.GOMAXPROCS(0), gogc)
}
