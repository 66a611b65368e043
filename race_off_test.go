//go:build !race

package armada_test

const raceEnabled = false
