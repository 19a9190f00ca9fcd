// Package env defines the execution environment that all algorithm code
// in this repository runs against.
//
// The paper's model (Section 4) measures cost in per-process steps: a
// step is a shared-memory operation, a local operation, or a stall.
// Every algorithm in this repository is written once against the Env
// interface and can run either on the deterministic step
// simulator (internal/sched), which realizes the paper's oblivious
// scheduler adversary exactly, or natively on goroutines for
// wall-clock benchmarks.
package env

// Env is the per-process execution environment.
//
// Algorithm code must call Step before every shared-memory operation
// and for every explicit stall step. In the simulator, Step yields to
// the scheduler and resumes when the oblivious schedule grants the
// process its next step, which serializes all shared-memory operations
// into the schedule order. In the native environment, Step merely
// counts.
type Env interface {
	// Step accounts one step of the owning process. In simulation it
	// also yields to the scheduler until it grants the next step.
	Step()

	// Steps reports the number of steps this process has taken so far.
	Steps() uint64

	// Rand returns a fresh uniform 64-bit random value drawn from the
	// process's private generator. Randomness is per-process and
	// deterministic given the seed, so simulated runs replay exactly.
	Rand() uint64

	// Pid returns the process identifier (dense, starting at 0).
	Pid() int
}

// StallUntil consumes steps until the process has taken at least target
// steps in total. It implements the paper's fixed delays ("Delay until
// T0 = c·κ²·L²·T total steps taken"): the process stalls by burning its
// own steps, so its reveal point is a fixed function of its start step.
func StallUntil(e Env, target uint64) {
	for e.Steps() < target {
		e.Step()
	}
}

// StallSteps consumes exactly n steps.
func StallSteps(e Env, n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
}

// RandInt63 returns a uniformly random positive int64 (63 bits, never
// zero is NOT guaranteed; callers needing strictly positive values
// should use RandPriority).
func RandInt63(e Env) int64 {
	return int64(e.Rand() >> 1)
}

// RandPriority returns a strictly positive random priority. Priorities
// double as the multi-active-set flag in Algorithm 3 (priority > 0 means
// the flag is set), so zero and negative values are reserved.
func RandPriority(e Env) int64 {
	for {
		if v := int64(e.Rand() >> 1); v > 0 {
			return v
		}
	}
}

// RandIntN returns a uniform value in [0, n). n must be positive.
func RandIntN(e Env, n int) int {
	// Modulo bias is negligible for n << 2^64 and irrelevant to the
	// experiments (used only for workload generation).
	return int(e.Rand() % uint64(n))
}
