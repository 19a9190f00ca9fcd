// Package sched implements the paper's execution model: an
// asynchronous shared-memory machine driven by an oblivious scheduler
// adversary (Section 2, Section 4).
//
// Each process runs as an iter.Pull coroutine. For every step the
// scheduler resumes the process named by the schedule, which executes
// until its next call to Env.Step (performing exactly the shared-memory
// or local work of one step) and yields back. Because only one
// coroutine ever runs at a time, every execution is a deterministic
// function of (schedule, seed) and replays exactly.
//
// Obliviousness: a Schedule decides the entire interleaving from its
// own state and the step index only — it never observes memory values
// or process progress, matching the paper's oblivious scheduler
// adversary, which fixes the schedule before the execution begins.
package sched

import "wflocks/internal/env"

// Schedule is an oblivious scheduler adversary: a predetermined
// function from step index to process id. Implementations must not
// consult execution state.
type Schedule interface {
	// Next returns the process id to run the step with the given global
	// index. Ids outside [0, n) are burnt (treated as no-ops), which
	// models the adversary scheduling a process that has nothing to do.
	Next(stepIndex uint64) int
}

// RoundRobin schedules processes 0..n-1 cyclically — the synchronous
// baseline scheduler from Section 2's "synchronous setting" discussion.
type RoundRobin struct {
	N int
}

var _ Schedule = RoundRobin{}

// Next implements Schedule.
func (r RoundRobin) Next(stepIndex uint64) int {
	return int(stepIndex % uint64(r.N))
}

// Random schedules uniformly at random from a seeded stream. This is
// the canonical oblivious adversary used by most experiments: the
// stream is fixed by the seed before execution begins.
type Random struct {
	rng env.RNG
	n   int
}

var _ Schedule = (*Random)(nil)

// NewRandom returns a uniform random schedule over n processes.
func NewRandom(n int, seed uint64) *Random {
	return &Random{rng: *env.NewRNG(env.Mix(seed, 0xdecafbad)), n: n}
}

// Next implements Schedule.
func (s *Random) Next(uint64) int { return s.rng.IntN(s.n) }

// Weighted schedules process i with probability proportional to
// Weights[i]. Used to model schedulers that run some processes much
// faster than others (the paper: "the scheduler can run different
// processes at very different rates").
type Weighted struct {
	cum []float64
	rng env.RNG
}

var _ Schedule = (*Weighted)(nil)

// NewWeighted builds a weighted random schedule. All weights must be
// non-negative with a positive sum.
func NewWeighted(weights []float64, seed uint64) *Weighted {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Weighted{cum: cum, rng: *env.NewRNG(env.Mix(seed, 0xfeed))}
}

// Next implements Schedule.
func (s *Weighted) Next(uint64) int {
	x := s.rng.Float64()
	for i, c := range s.cum {
		if x < c {
			return i
		}
	}
	return len(s.cum) - 1
}

// StallWindow excludes a process from scheduling during a step-index
// window. Used by the failure-injection and baseline experiments (E8):
// the adversary stalls a lock holder arbitrarily long.
type StallWindow struct {
	Pid        int
	From, To   uint64 // global step indices, [From, To)
	Redirected int    // process scheduled instead during the window
}

// Stalling wraps a base schedule with stall windows.
type Stalling struct {
	Base    Schedule
	Windows []StallWindow
}

var _ Schedule = (*Stalling)(nil)

// Next implements Schedule.
func (s *Stalling) Next(stepIndex uint64) int {
	pid := s.Base.Next(stepIndex)
	for _, w := range s.Windows {
		if pid == w.Pid && stepIndex >= w.From && stepIndex < w.To {
			return w.Redirected
		}
	}
	return pid
}

// Trace replays an explicit sequence of pids, then falls back to
// round-robin. Used by tests that need precise interleavings.
type Trace struct {
	Pids []int
	N    int
}

var _ Schedule = (*Trace)(nil)

// Next implements Schedule.
func (t *Trace) Next(stepIndex uint64) int {
	if stepIndex < uint64(len(t.Pids)) {
		return t.Pids[stepIndex]
	}
	return int(stepIndex % uint64(t.N))
}

// Bursty alternates long bursts of a single process with uniform random
// scheduling — an adversarial pattern that maximizes overlap asymmetry.
type Bursty struct {
	n        int
	burstLen uint64
	rng      env.RNG
	current  int
	left     uint64
}

var _ Schedule = (*Bursty)(nil)

// NewBursty returns a bursty schedule over n processes with bursts of
// the given length.
func NewBursty(n int, burstLen uint64, seed uint64) *Bursty {
	return &Bursty{n: n, burstLen: burstLen, rng: *env.NewRNG(env.Mix(seed, 0xb00))}
}

// Next implements Schedule.
func (s *Bursty) Next(uint64) int {
	if s.left == 0 {
		s.current = s.rng.IntN(s.n)
		s.left = s.burstLen
	}
	s.left--
	return s.current
}
