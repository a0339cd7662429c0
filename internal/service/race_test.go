//go:build race

package service

// The race detector adds allocations of its own, so counts taken under
// it are not the program's.
func init() { raceEnabled = true }
