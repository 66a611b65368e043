package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The sandbox this benchmark runs in shares its host. Measured on it, the
// same binary on the same seed ran at anything between a third and all of
// its usual speed from one minute to the next, and for minutes at a time
// the hypervisor withheld the processors for well over half of every
// second. No bound a metric may carry survives that, so every wall-clock
// figure is corrected for the two things the machine does to it:
//
//   - speed: a client times a fixed reference kernel every few
//     milliseconds, between operations, and a time measured in a window is
//     scaled by the kernel's nominal duration over its median duration in
//     that same window;
//   - processors withheld: throughput is counted per second the hypervisor
//     left the processors to the machine (/proc/stat's steal), and set-up
//     is timed in processor time, which stands still while they are
//     withheld.
//
// What is reported is time on a machine of nominal speed that never takes
// its processors away. On such a machine both corrections are 1. README.md
// shows what they remove and what they leave.

// kernel is the reference work: map lookups by string key, binary searches
// over sorted strings, small allocations and a chain of dependent
// arithmetic — the kinds of work the layers under test do, but none of
// their code, so it never changes when they do.
type kernel struct {
	keys   []string // unsorted
	sorted []string
	index  map[string]int32
	state  uint64
	keep   [][]byte
}

const (
	kernelKeys = 1 << 12
	// kernelGap is the wall time let pass between two kernels.
	kernelGap = 2 * time.Millisecond
	// kernelNominal is the kernel's duration on a machine of nominal
	// speed: about what it takes between a client's operations when this
	// sandbox's host is quiet.
	kernelNominal = 16 * time.Microsecond
)

func newKernel(seed uint64) *kernel {
	k := &kernel{
		keys:  make([]string, kernelKeys),
		index: make(map[string]int32, kernelKeys),
		state: seed | 1,
		keep:  make([][]byte, 0, 8),
	}
	for i := range k.keys {
		k.keys[i] = "0" + strconv.FormatUint(mix(i)>>20, 3)
		k.index[k.keys[i]] = int32(i)
	}
	k.sorted = append(k.sorted, k.keys...)
	sort.Strings(k.sorted)
	return k
}

// run executes the kernel once and returns how long it took.
func (k *kernel) run() time.Duration {
	t0 := time.Now()
	x := k.state
	sum := 0
	k.keep = k.keep[:0]
	for i := range 32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := k.keys[x%kernelKeys]
		sum += int(k.index[key])
		sum += sort.SearchStrings(k.sorted, key)
		if i%4 == 0 {
			k.keep = append(k.keep, make([]byte, 48+sum%64))
		}
	}
	for range 1500 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	k.state = x + uint64(sum)
	return time.Since(t0)
}

// speedScale returns the factor that turns a time measured while the kernel
// took the given durations (ns) into time at nominal machine speed: the
// kernel's nominal duration over its median one; 1 if it never ran.
func speedScale(kernelRuns []float64) float64 {
	if len(kernelRuns) == 0 {
		return 1
	}
	return float64(kernelNominal) / median(kernelRuns)
}

// speedometer times the kernel every kernelGap on a goroutine of its own,
// for a phase that is one long call and cannot run the kernel between its
// own steps: the set-up.
type speedometer struct {
	quit chan struct{}
	done chan []float64
}

func startSpeedometer(seed uint64) *speedometer {
	s := &speedometer{quit: make(chan struct{}), done: make(chan []float64, 1)}
	k := newKernel(seed)
	go func() {
		var runs []float64
		tick := time.NewTicker(kernelGap)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- runs
				return
			case <-tick.C:
				runs = append(runs, float64(k.run()))
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the speed scale of the time it ran.
func (s *speedometer) stop() float64 {
	close(s.quit)
	return speedScale(<-s.done)
}

// machineTicks are /proc/stat's clock ticks summed over the processors: all
// of them, and those in which the hypervisor withheld a processor that had
// work to do (steal).
type machineTicks struct{ total, stolen float64 }

// readMachineTicks reads /proc/stat; where there is none, or it does not
// parse, the ticks are zero and nothing counts as withheld.
func readMachineTicks() (t machineTicks) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return machineTicks{}
		}
		t.total += v
		if i == 7 {
			t.stolen = v
		}
	}
	return t
}

// givenSince returns the share of the time since the earlier reading in
// which the hypervisor left the processors to the machine; 1 where that
// cannot be told.
func (t machineTicks) givenSince(earlier machineTicks) float64 {
	total, stolen := t.total-earlier.total, t.stolen-earlier.stolen
	if total <= 0 || stolen < 0 {
		return 1
	}
	return max(1-stolen/total, 0.01)
}

// processorTime returns the processor time this process has used, user and
// system, on all its threads. The kernel does not charge a process for time
// the hypervisor withheld, so this clock stands still while wall time runs
// on.
func processorTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
