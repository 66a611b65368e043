package diag

import (
	"sync"
	"time"
)

// The burn-rate windows follow the multi-window convention: a fast window
// that reacts to an active incident within seconds and a slow window that
// smooths it into a page-worthy trend. Burn rate is the window's bad
// fraction divided by the SLO's error budget (1 − objective): 1.0 means
// the budget is being spent exactly at the sustainable rate, higher means
// it is burning down.
const (
	fastWindow = 5 * time.Second
	slowWindow = 60 * time.Second
)

// SLOReport is the burn-rate monitor's exported state.
type SLOReport struct {
	// Objective is the good fraction promised over the delay bound (e.g.
	// 0.999: at most one query in a thousand may reach 2·log₂N hops).
	Objective     float64 `json:"objective"`
	FastWindowSec float64 `json:"fast_window_sec"`
	SlowWindowSec float64 `json:"slow_window_sec"`
	FastBurnRate  float64 `json:"fast_burn_rate"`
	SlowBurnRate  float64 `json:"slow_burn_rate"`
}

// sloBucket accumulates one second's observations.
type sloBucket struct {
	total int64
	bad   int64
}

// SLO tracks delay-bound conformance in per-second buckets over the slow
// window, deriving fast- and slow-window burn rates on demand.
type SLO struct {
	objective float64
	now       func() time.Duration // monitor clock (since start)

	mu      sync.Mutex
	secs    [int64(slowWindow / time.Second)]sloBucket
	lastSec int64 // highest second index observed or advanced to
}

func newSLO(objective float64, now func() time.Duration) *SLO {
	return &SLO{objective: objective, now: now}
}

// advanceLocked rolls the ring forward to sec, clearing buckets whose
// second has passed out from under them. The caller holds s.mu.
func (s *SLO) advanceLocked(sec int64) {
	n := int64(len(s.secs))
	if sec-s.lastSec >= n {
		// The whole window elapsed unobserved; clear everything.
		s.secs = [int64(slowWindow / time.Second)]sloBucket{}
		s.lastSec = sec
		return
	}
	for s.lastSec < sec {
		s.lastSec++
		s.secs[s.lastSec%n] = sloBucket{}
	}
}

// Observe records one query's delay-bound verdict.
func (s *SLO) Observe(violation bool) {
	sec := int64(s.now() / time.Second)
	s.mu.Lock()
	s.advanceLocked(sec)
	b := &s.secs[sec%int64(len(s.secs))]
	b.total++
	if violation {
		b.bad++
	}
	s.mu.Unlock()
}

// burnLocked computes the burn rate over the trailing window seconds
// (including the current partial second). The caller holds s.mu with the
// ring advanced to the current second.
func (s *SLO) burnLocked(window time.Duration) float64 {
	n := int64(len(s.secs))
	w := int64(window / time.Second)
	if w > n {
		w = n
	}
	var total, bad int64
	for i := int64(0); i < w; i++ {
		sec := s.lastSec - i
		if sec < 0 {
			break
		}
		b := s.secs[sec%n]
		total += b.total
		bad += b.bad
	}
	if total == 0 {
		return 0
	}
	budget := 1 - s.objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// Report snapshots the monitor's window burn rates.
func (s *SLO) Report() SLOReport {
	sec := int64(s.now() / time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(sec)
	return SLOReport{
		Objective:     s.objective,
		FastWindowSec: fastWindow.Seconds(),
		SlowWindowSec: slowWindow.Seconds(),
		FastBurnRate:  s.burnLocked(fastWindow),
		SlowBurnRate:  s.burnLocked(slowWindow),
	}
}
