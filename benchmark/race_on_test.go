//go:build race

package main

// Under the race detector structs-raw completes a few dozen rounds in a
// smoke window, so every one of them is timed to give a percentile its
// twenty samples; the serve workloads complete too few requests for any
// percentile (the server's spinning workers take most of the two CPUs),
// so TestSmoke leaves them to TestServeGenerators.
const (
	raceDetector  = true
	smokeLatEvery = 1
)
