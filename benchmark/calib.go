package main

import (
	"sync"
	"time"
)

// This sandbox's CPUs run up to a third slower for a minute or two at a
// time: a loop that touches none of the program slows with it, so it is
// the neighbours, not the program. A run lasts twenty seconds and is
// slow or fast as a whole, and ten runs that catch three slow ones
// spread wider than any bound the contract allows. So every epoch
// brackets its work with a fixed loop of the benchmark's own, and what
// is set by CPU speed is reported in calibrated time, as if that loop
// had taken calibNominal: set-up time on every workload, and rate and
// latency on the workloads whose pace the CPU sets (workload.cpuBound).
// What sleeps or a schedule set (the stall workloads' rates and tails,
// the paced rate) is left alone; calibrating it would add the loop's own
// noise to numbers that have none. Over ten fresh-process runs per
// workload this took the spread of ops_per_s on structs-raw from 0.25 to
// 0.09, and made ops_per_s on txn-stall 0.03 to 0.27 when tried there.

// calibNominal is how long the loop takes on this sandbox when it is
// undisturbed. It is a constant, not the run's own minimum, because a
// run that is slow as a whole has no fast moment to compare with; on
// another machine it only fixes the unit.
const calibNominal = 12500 * time.Microsecond

const (
	calibWords = 1 << 21 // 16 MB: past the caches, so memory contention shows too
	calibSteps = 3_000_000
)

// calibTable is a package-level array so that it lives outside the
// garbage-collected heap: 16 MB of live heap would move the collector's
// trigger, and with it the numbers of the workloads that allocate least.
var calibTable [calibWords]uint64

// calibrator is a fixed loop of the benchmark's own: on each of w
// goroutines, calibSteps dependent loads from calibTable, each fed
// through a multiply.
type calibrator struct {
	w    int
	sink []uint64 // one per goroutine; keeps the loop from being optimised away
}

func newCalibrator(w int) *calibrator {
	for i := range calibTable {
		calibTable[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return &calibrator{w: w, sink: make([]uint64, w)}
}

// measure runs the loop twice and returns the shorter wall time: after
// an epoch that left the CPUs mostly idle the first pass runs on a cold
// CPU and reads long whatever the machine's state.
func (c *calibrator) measure() time.Duration {
	return min(c.once(), c.once())
}

func (c *calibrator) once() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < c.w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, idx := uint64(g+1), uint64(g)
			for i := 0; i < calibSteps; i++ {
				idx = idx*6364136223846793005 + 1442695040888963407
				x = (x + calibTable[idx>>43]) * 0x9e3779b97f4a7c15
			}
			c.sink[g] = x
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// speed is the run's speed index from its epochs' calibrations: above 1
// on a machine faster than the nominal one, below 1 when it is
// disturbed. Each epoch contributes the smaller of the measurements
// before and after it (a preempted loop only ever reads long), and the
// run the median.
func speed(calibs []float64) float64 {
	return calibNominal.Seconds() / median(calibs)
}
