//go:build race

package main

// raceEnabled reports that the race detector instruments this build,
// which distorts the timings the smoke test compares.
const raceEnabled = true
