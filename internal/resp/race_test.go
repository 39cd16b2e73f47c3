//go:build race

package resp

// raceEnabled skips strict zero-allocation assertions under the race
// detector, whose instrumentation allocates on cross-goroutine handoffs.
const raceEnabled = true
