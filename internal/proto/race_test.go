//go:build race

package proto

// The race detector adds allocations of its own, so counts taken under
// it are not the program's.
func init() { raceEnabled = true }
