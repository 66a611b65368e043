//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so the pooled query state is sometimes rebuilt and exact allocation
// counts do not hold.
const raceEnabled = true
