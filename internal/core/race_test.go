//go:build race

package core

// raceEnabled reports a race-detector build, in which sync.Pool drops
// some of the values put back into it, so allocation counts differ from
// a normal build's.
const raceEnabled = true
