//go:build race

package geom

// raceEnabled reports that the race detector, whose instrumentation moves
// stack buffers to the heap, is on.
const raceEnabled = true
