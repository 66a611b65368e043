package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"armada"
)

const (
	churnJoin = iota
	churnLeave
	churnFail
)

var churnNames = [3]string{"join", "leave", "fail"}

// pick draws the next event's kind by rate, forced to a join at the bottom
// of the size band and to a departure at its top.
func (r churnRates) pick(rng *rand.Rand, size int) int {
	draw := rng.Float64() * r.total()
	switch {
	case size <= r.sizeLo:
		return churnJoin
	case draw < r.join && size < r.sizeHi:
		return churnJoin
	case draw < r.join+r.leave || r.fail == 0:
		return churnLeave
	default:
		return churnFail
	}
}

// churnEvent is one topology event the churn goroutine ran.
type churnEvent struct {
	kind  int
	at    time.Time
	ns    int64 // how long the call took, lock wait included
	lagNs int64 // how long after its scheduled time it started
}

// churner runs topology events on an absolute schedule: event i is due at
// i/rate seconds after the start, however long earlier events took, so a
// slow network does not get less churn. Leaving and failing peers are drawn
// by the network, because only it knows the identifiers churn has created.
type churner struct {
	rates   churnRates
	net     *armada.Network
	rng     *rand.Rand
	size    *atomic.Int64
	events  []churnEvent
	failed  int64
	lastErr error
	// rereplications is the network's repair-copy count over the measured
	// phase; the run fills it in.
	rereplications int64
}

func (ch *churner) run(begin, deadline time.Time) {
	gap := time.Duration(float64(time.Second) / ch.rates.total())
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * gap)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		kind := ch.rates.pick(ch.rng, int(ch.size.Load()))
		t0 := time.Now()
		var err error
		switch kind {
		case churnJoin:
			_, err = ch.net.Join()
		case churnLeave:
			err = ch.net.Leave(ch.net.RandomPeer())
		default:
			err = ch.net.Fail(ch.net.RandomPeer())
		}
		t1 := time.Now()
		if err != nil {
			ch.failed++
			ch.lastErr = fmt.Errorf("%s: %w", churnNames[kind], err)
			continue
		}
		if kind == churnJoin {
			ch.size.Add(1)
		} else {
			ch.size.Add(-1)
		}
		ch.events = append(ch.events, churnEvent{kind: kind, at: t0, ns: t1.Sub(t0).Nanoseconds(), lagNs: t0.Sub(due).Nanoseconds()})
	}
}
