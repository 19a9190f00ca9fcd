package core

import (
	"errors"
	"testing"

	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/sched"
)

// lockCells is the per-lock instrumented state used by the invariant-
// checking thunks: a critical-section-held flag, a win counter, and a
// shared violation cell.
type lockCells struct {
	held *idem.Cell
	ctr  *idem.Cell
}

type harness struct {
	sys       *System
	locks     []*Lock
	cells     []lockCells
	violation *idem.Cell
}

func newHarness(t *testing.T, cfg Config, numLocks int) *harness {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{sys: sys, violation: idem.NewCell(0)}
	for i := 0; i < numLocks; i++ {
		h.locks = append(h.locks, sys.NewLock())
		h.cells = append(h.cells, lockCells{held: idem.NewCell(0), ctr: idem.NewCell(0)})
	}
	return h
}

// thunkFor builds the invariant-checking critical section for a lock
// subset: it checks no shared lock's critical section is already open,
// opens them, bumps each lock's win counter, and closes them. 5 ops per
// lock.
func (h *harness) thunkFor(lockIdx []int) idem.Body {
	return func(r *idem.Run) {
		for _, li := range lockIdx {
			if r.Read(h.cells[li].held) != 0 {
				r.Write(h.violation, 1)
			} else {
				r.Write(h.cells[li].held, 1)
			}
		}
		for _, li := range lockIdx {
			v := r.Read(h.cells[li].ctr)
			r.Write(h.cells[li].ctr, v+1)
		}
		for _, li := range lockIdx {
			r.Write(h.cells[li].held, 0)
		}
	}
}

// tryLocks makes one attempt on the locks in lockIdx with thunkFor's
// critical section and its budget.
func (h *harness) tryLocks(e env.Env, lockIdx []int) bool {
	return h.sys.TryLocks(e, h.locksFor(lockIdx), h.thunkFor(lockIdx), 6*len(lockIdx))
}

func (h *harness) locksFor(lockIdx []int) []*Lock {
	out := make([]*Lock, len(lockIdx))
	for i, li := range lockIdx {
		out[i] = h.locks[li]
	}
	return out
}

func TestNewSystemValidation(t *testing.T) {
	cases := []Config{
		{}, // everything missing
		{Kappa: 2, MaxLocks: 0, MaxThunkSteps: 1},             // no MaxLocks
		{Kappa: 2, MaxLocks: 1, MaxThunkSteps: 0},             // no MaxThunkSteps
		{Kappa: 0, MaxLocks: 1, MaxThunkSteps: 1},             // no Kappa, known mode
		{UnknownBounds: true, MaxLocks: 1, MaxThunkSteps: 1},  // no NumProcs, unknown mode
		{Kappa: 2, MaxLocks: 1, MaxThunkSteps: 1, DelayC: -1}, // negative constant
	}
	for i, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
	if _, err := NewSystem(Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 10}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys, err := NewSystem(Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().DelayC != defaultDelayC || sys.Config().DelayC1 != defaultDelayC1 {
		t.Fatalf("defaults not applied: %+v", sys.Config())
	}
}

func TestSingleProcessAlwaysWins(t *testing.T) {
	h := newHarness(t, Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 64}, 2)
	e := env.NewNative(0, 1)
	for k := 0; k < 20; k++ {
		ok := h.tryLocks(e, []int{0, 1})
		if !ok {
			t.Fatalf("uncontended attempt %d failed", k)
		}
	}
	if got := h.cells[0].ctr.Load(e); got != 20 {
		t.Fatalf("lock 0 counter = %d, want 20", got)
	}
	if got := h.violation.Load(e); got != 0 {
		t.Fatal("mutual exclusion violation recorded")
	}
}

func TestFailedAttemptThunkNeverRuns(t *testing.T) {
	// Force a failure: descriptor eliminated by a competing attempt.
	// We detect failures over many seeds and assert their thunks never
	// ran (Definition 4.3: "If A fails, there is no run of T").
	sawFailure := false
	for seed := uint64(1); seed <= 40 && !sawFailure; seed++ {
		h := newHarness(t, Config{Kappa: 2, MaxLocks: 1, MaxThunkSteps: 64}, 1)
		sim := sched.New(sched.NewRandom(2, seed), seed)
		type result struct {
			ok, ran bool
		}
		results := make([]result, 2)
		for i := 0; i < 2; i++ {
			i := i
			sim.Spawn(func(e env.Env) {
				th := h.thunkFor([]int{0})
				ok := h.sys.TryLocks(e, h.locksFor([]int{0}), idem.Body(func(r *idem.Run) {
					th(r)
					results[i].ran = true
				}), 6)
				results[i].ok = ok
			})
		}
		if err := sim.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		for i, r := range results {
			if !r.ok {
				sawFailure = true
				if r.ran {
					t.Fatalf("seed %d: failed attempt %d's thunk ran", seed, i)
				}
			}
		}
		wins := 0
		for _, r := range results {
			if r.ok {
				wins++
			}
		}
		if got := h.cells[0].ctr.Load(e); got != uint64(wins) {
			t.Fatalf("seed %d: counter = %d, wins = %d", seed, got, wins)
		}
	}
	if !sawFailure {
		t.Skip("no failures observed in 40 seeds; fairness too good to exercise failure path")
	}
}

// runWorkload runs procs processes, each performing rounds tryLock
// attempts on the given per-process lock subsets, under a seeded random
// schedule. Returns per-process win counts.
func runWorkload(t *testing.T, h *harness, seed uint64, rounds int, lockSets [][]int) []int {
	t.Helper()
	procs := len(lockSets)
	sim := sched.New(sched.NewRandom(procs, seed), seed)
	winCounts := make([]int, procs)
	for i := 0; i < procs; i++ {
		i := i
		sim.Spawn(func(e env.Env) {
			for k := 0; k < rounds; k++ {
				if h.tryLocks(e, lockSets[i]) {
					winCounts[i]++
				}
			}
		})
	}
	if err := sim.Run(500_000_000); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return winCounts
}

func verifyCounters(t *testing.T, h *harness, lockSets [][]int, winCounts []int) {
	t.Helper()
	e := env.NewNative(99, 1)
	if got := h.violation.Load(e); got != 0 {
		t.Fatal("mutual exclusion violated: overlapping critical sections on a shared lock")
	}
	wantPerLock := make([]uint64, len(h.locks))
	for i, set := range lockSets {
		for _, li := range set {
			wantPerLock[li] += uint64(winCounts[i])
		}
	}
	for li := range h.locks {
		if got := h.cells[li].ctr.Load(e); got != wantPerLock[li] {
			t.Fatalf("lock %d counter = %d, want %d (thunks lost or double-applied)",
				li, got, wantPerLock[li])
		}
	}
}

// shortSweep trims a seed sweep in -short mode (CI) while keeping the
// full sweep for the default run.
func shortSweep(full uint64) uint64 {
	if testing.Short() {
		return 3
	}
	return full
}

func TestMutualExclusionPhilosophers(t *testing.T) {
	// 4 philosophers, ring of 4 chopsticks: κ = L = 2.
	lockSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for seed := uint64(1); seed <= shortSweep(25); seed++ {
		h := newHarness(t, Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}, 4)
		winCounts := runWorkload(t, h, seed, 6, lockSets)
		verifyCounters(t, h, lockSets, winCounts)
		if h.sys.DelayOverruns() != 0 {
			t.Fatalf("seed %d: %d delay overruns — delay constants too small",
				seed, h.sys.DelayOverruns())
		}
	}
}

func TestMutualExclusionSingleHotLock(t *testing.T) {
	// All processes fight over one lock: κ = 4, L = 1.
	lockSets := [][]int{{0}, {0}, {0}, {0}}
	for seed := uint64(1); seed <= shortSweep(25); seed++ {
		h := newHarness(t, Config{Kappa: 4, MaxLocks: 1, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}, 1)
		winCounts := runWorkload(t, h, seed, 5, lockSets)
		verifyCounters(t, h, lockSets, winCounts)
	}
}

func TestMutualExclusionOverlappingTriples(t *testing.T) {
	// L = 3 with entangled lock sets over 5 locks; κ = 3.
	lockSets := [][]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}
	for seed := uint64(1); seed <= shortSweep(15); seed++ {
		h := newHarness(t, Config{Kappa: 3, MaxLocks: 3, MaxThunkSteps: 256, DelayC: 4, DelayC1: 8}, 5)
		winCounts := runWorkload(t, h, seed, 4, lockSets)
		verifyCounters(t, h, lockSets, winCounts)
	}
}

func TestMutualExclusionUnknownBounds(t *testing.T) {
	lockSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for seed := uint64(1); seed <= 25; seed++ {
		h := newHarness(t, Config{
			UnknownBounds: true, NumProcs: 4, MaxLocks: 2, MaxThunkSteps: 128,
		}, 4)
		winCounts := runWorkload(t, h, seed, 6, lockSets)
		verifyCounters(t, h, lockSets, winCounts)
	}
}

func TestUnknownBoundsHotLock(t *testing.T) {
	lockSets := [][]int{{0}, {0}, {0}, {0}, {0}}
	for seed := uint64(1); seed <= 15; seed++ {
		h := newHarness(t, Config{
			UnknownBounds: true, NumProcs: 5, MaxLocks: 1, MaxThunkSteps: 128,
		}, 1)
		winCounts := runWorkload(t, h, seed, 4, lockSets)
		verifyCounters(t, h, lockSets, winCounts)
	}
}

func TestStepBoundPerAttempt(t *testing.T) {
	// Theorem 6.1: every attempt takes O(κ²L²T) steps — with our
	// concrete constants, at most T0 + T1 + slack, win or lose.
	lockSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	cfg := Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}
	h := newHarness(t, cfg, 4)
	bound := h.sys.t0() + h.sys.t1() + 64 // slack: descriptor setup + final checks
	for seed := uint64(1); seed <= shortSweep(10); seed++ {
		h := newHarness(t, cfg, 4)
		procs := len(lockSets)
		sim := sched.New(sched.NewRandom(procs, seed), seed)
		var maxSteps uint64
		for i := 0; i < procs; i++ {
			i := i
			sim.Spawn(func(e env.Env) {
				for k := 0; k < 4; k++ {
					before := e.Steps()
					h.tryLocks(e, lockSets[i])
					if d := e.Steps() - before; d > maxSteps {
						maxSteps = d
					}
				}
			})
		}
		if err := sim.Run(500_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if maxSteps > bound {
			t.Fatalf("seed %d: attempt took %d steps, bound %d", seed, maxSteps, bound)
		}
		if h.sys.DelayOverruns() != 0 {
			t.Fatalf("seed %d: delay overruns: %d", seed, h.sys.DelayOverruns())
		}
	}
}

func TestFixedStepsToReveal(t *testing.T) {
	// Observation 6.7: every attempt takes the same number of its own
	// steps from start to reveal, and from reveal to completion,
	// regardless of schedule or contention.
	lockSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	cfg := Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}
	var lengths []uint64
	for seed := uint64(1); seed <= 6; seed++ {
		h := newHarness(t, cfg, 4)
		procs := len(lockSets)
		sim := sched.New(sched.NewRandom(procs, seed), seed)
		for i := 0; i < procs; i++ {
			i := i
			sim.Spawn(func(e env.Env) {
				for k := 0; k < 3; k++ {
					before := e.Steps()
					h.tryLocks(e, lockSets[i])
					lengths = append(lengths, e.Steps()-before)
				}
			})
		}
		if err := sim.Run(500_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for i := 1; i < len(lengths); i++ {
		if lengths[i] != lengths[0] {
			t.Fatalf("attempt lengths differ: %d vs %d — adversary can read contention off timing",
				lengths[i], lengths[0])
		}
	}
}

func TestFairnessPhilosophersRate(t *testing.T) {
	// Theorem 6.9 specialized to dining philosophers (κ = L = 2): each
	// attempt succeeds with probability ≥ 1/4. A uniform random
	// scheduler is far from worst-case, so the empirical rate should
	// clear 1/4 comfortably; we assert the theorem's floor.
	lockSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	attempts, wins := 0, 0
	for seed := uint64(1); seed <= shortSweep(20); seed++ {
		h := newHarness(t, Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}, 4)
		winCounts := runWorkload(t, h, seed, 6, lockSets)
		for _, w := range winCounts {
			wins += w
		}
		attempts += 6 * len(lockSets)
	}
	rate := float64(wins) / float64(attempts)
	if rate < 0.25 {
		t.Fatalf("success rate %.3f below the 1/4 fairness floor (%d/%d)",
			rate, wins, attempts)
	}
}

func TestWaitFreedomUnderStalledProcess(t *testing.T) {
	// A process stalled forever mid-attempt must not block others
	// (wait-freedom): the others' attempts all complete, and if the
	// stalled process had won, its thunk still runs (helping).
	lockSets := [][]int{{0}, {0}, {0}}
	for seed := uint64(1); seed <= shortSweep(15); seed++ {
		h := newHarness(t, Config{Kappa: 3, MaxLocks: 1, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}, 1)
		base := sched.NewRandom(3, seed)
		// Stall process 0 from step 2000 onward, forever.
		schedule := &sched.Stalling{
			Base:    base,
			Windows: []sched.StallWindow{{Pid: 0, From: 2000, To: ^uint64(0), Redirected: 1}},
		}
		sim := sched.New(schedule, seed)
		finished := make([]bool, 3)
		for i := 0; i < 3; i++ {
			i := i
			sim.Spawn(func(e env.Env) {
				rounds := 3
				if i == 0 {
					rounds = 1000 // will be cut off by the stall window
				}
				for k := 0; k < rounds; k++ {
					h.tryLocks(e, lockSets[i])
				}
				finished[i] = true
			})
		}
		err := sim.Run(10_000_000)
		if err != nil && !errors.Is(err, sched.ErrStepLimit) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !finished[1] || !finished[2] {
			t.Fatalf("seed %d: live processes blocked by a stalled one", seed)
		}
		e := env.NewNative(99, 1)
		if got := h.violation.Load(e); got != 0 {
			t.Fatalf("seed %d: mutual exclusion violated", seed)
		}
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	run := func() []int {
		lockSets := [][]int{{0, 1}, {1, 0}}
		h := newHarness(t, Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 128, DelayC: 4, DelayC1: 8}, 2)
		return runWorkload(t, h, 7, 5, lockSets)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged: %v vs %v", a, b)
		}
	}
}

func TestStatusTransitionsAtMostOnce(t *testing.T) {
	// eliminate on a won descriptor must not demote it, and decide on a
	// lost descriptor must not promote it.
	sys, err := NewSystem(Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewNative(0, 1)
	p := &Descriptor{sys: sys}
	p.status.Store(StatusActive)
	sys.decide(e, p)
	if p.Status() != StatusWon {
		t.Fatal("decide on active did not win")
	}
	sys.eliminate(e, p)
	if p.Status() != StatusWon {
		t.Fatal("eliminate demoted a winner")
	}
	q := &Descriptor{sys: sys}
	q.status.Store(StatusActive)
	sys.eliminate(e, q)
	sys.decide(e, q)
	if q.Status() != StatusLost {
		t.Fatal("decide promoted a loser")
	}
}

func TestTryLocksPanicsOnBadLockSet(t *testing.T) {
	sys, err := NewSystem(Config{Kappa: 2, MaxLocks: 2, MaxThunkSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewNative(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty lock set")
		}
	}()
	sys.TryLocks(e, nil, idem.Body(func(r *idem.Run) {}), 0)
}

func TestAttemptAndWinCounters(t *testing.T) {
	h := newHarness(t, Config{Kappa: 2, MaxLocks: 1, MaxThunkSteps: 64}, 1)
	e := env.NewNative(0, 1)
	for k := 0; k < 5; k++ {
		h.tryLocks(e, []int{0})
	}
	if h.sys.Attempts() != 5 || h.sys.Wins() != 5 {
		t.Fatalf("attempts/wins = %d/%d, want 5/5", h.sys.Attempts(), h.sys.Wins())
	}
}

func TestCountHelp(t *testing.T) {
	// An undecided descriptor is a help; a won one whose body has not
	// finished is a help completion; a finished or lost one is neither.
	sys, err := NewSystem(Config{Kappa: 2, MaxLocks: 1, MaxThunkSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	l := sys.NewLock()
	e := env.NewNative(0, 1)
	// The lock's counters accumulate over the cases.
	for _, tc := range []struct {
		status             int32
		finished           bool
		active             bool
		helps, completions uint64
	}{
		{StatusActive, false, true, 1, 0},
		{StatusWon, false, false, 1, 1},
		{StatusWon, true, false, 1, 1},
		{StatusLost, false, false, 1, 1},
	} {
		q := sys.newDescriptor(nil, []*Lock{l}, noop, 0)
		if tc.finished {
			q.thunk.Execute(e)
		}
		q.status.Store(tc.status)
		active := countHelp(l, q)
		_, _, helps, completions := l.Counters()
		if active != tc.active || helps != tc.helps || completions != tc.completions {
			t.Fatalf("%s, finished %v: active %v helps %d completions %d, want %v %d %d",
				StatusName(tc.status), tc.finished, active, helps, completions,
				tc.active, tc.helps, tc.completions)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[uint64]uint64{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPowerOfTwo(in); got != want {
			t.Errorf("nextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestStatusName(t *testing.T) {
	if StatusName(StatusActive) != "active" || StatusName(StatusWon) != "won" ||
		StatusName(StatusLost) != "lost" || StatusName(99) == "" {
		t.Fatal("StatusName broken")
	}
}
