//go:build race

package armada_test

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so the engine's pooled query state is sometimes rebuilt and exact
// allocation counts do not hold.
const raceEnabled = true
