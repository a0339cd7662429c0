//go:build race

package workload

// The race detector makes sync.Pool drop items at random, so counts of
// allocations that a pool saves are not counts under it.
func init() { raceEnabled = true }
