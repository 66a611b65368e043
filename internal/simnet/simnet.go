// Package simnet provides the generic message-passing engine the DCF-CAN
// baseline (internal/dcfcan) simulates its flooding phase on. A query is a
// set of seed messages plus a handler that, given a delivered message,
// returns the messages to forward next. The engine tracks the paper's two
// cost metrics:
//
//   - Delay: the largest hop depth at which any message is delivered (the
//     time until the last destination peer has been reached).
//   - Messages: the number of overlay messages sent (seed messages are local
//     computation at the issuer and are not counted).
//
// Armada's own query engine (internal/core) does not use this package: it
// runs the same breadth-first discipline over a typed, pooled message queue.
package simnet

import "context"

// Message is one overlay message addressed to a peer. Depth is assigned by
// the engine: seeds are at depth 0 and every forward is one deeper than the
// message that produced it.
type Message struct {
	To      string
	Depth   int
	Payload any
}

// Handler processes a delivered message at its destination and returns the
// messages to forward. Returned messages must have To and Payload set;
// Depth is ignored and reassigned by the engine.
type Handler func(m Message) []Message

// Metrics are the cost counters of one simulated query.
type Metrics struct {
	Delay    int
	Messages int
}

// RunSync executes the query breadth-first in a single goroutine. Messages
// at equal depth are processed in insertion order, so a deterministic
// handler yields a deterministic trace.
//
// Cancelling ctx stops the run between messages; the metrics accumulated so
// far are returned together with ctx's error. A nil ctx never cancels.
func RunSync(ctx context.Context, seeds []Message, handle Handler) (Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var metrics Metrics
	queue := make([]Message, 0, len(seeds))
	for _, s := range seeds {
		s.Depth = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return metrics, err
		}
		m := queue[0]
		queue = queue[1:]
		if m.Depth > metrics.Delay {
			metrics.Delay = m.Depth
		}
		if m.Depth >= 1 {
			metrics.Messages++
		}
		for _, f := range handle(m) {
			f.Depth = m.Depth + 1
			queue = append(queue, f)
		}
	}
	return metrics, nil
}
