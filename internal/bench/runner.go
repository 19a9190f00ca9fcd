package bench

import (
	"errors"
	"fmt"

	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/sched"
	"wflocks/internal/workload"
)

// RunConfig parameterizes one simulated experiment run.
type RunConfig struct {
	Workload *workload.Workload
	Schedule sched.Schedule // nil = uniform random over the workload's processes
	Seed     uint64
	// Rounds is the number of rounds per process. In attempt mode each
	// round is one tryLock; in Retry mode each round retries until it
	// succeeds.
	Rounds int
	Retry  bool
	// ExtraThunkOps pads every critical section with this many extra
	// reads, to scale the paper's T parameter.
	ExtraThunkOps int
	// MaxSteps bounds the simulation; 0 selects a generous default.
	MaxSteps uint64
	// AllowStarvation tolerates a step-limit exit (used when measuring
	// blocking baselines under stalls).
	AllowStarvation bool
}

// Metrics holds everything measured in one run.
type Metrics struct {
	PerProcAttempts []int
	PerProcWins     []int
	// AttemptSteps has one entry per attempt: the caller's own steps
	// spent in that attempt.
	AttemptSteps []uint64
	// RoundSteps has one entry per *completed* round in Retry mode: own
	// steps from round start to first success.
	RoundSteps []uint64
	// RoundAttempts has the attempt count per completed round.
	RoundAttempts []int
	// Starved reports that the run hit the step limit.
	Starved bool
	// FinishedProcs counts processes that completed all rounds.
	FinishedProcs int
}

// Attempts sums attempts across processes.
func (m *Metrics) Attempts() int {
	n := 0
	for _, a := range m.PerProcAttempts {
		n += a
	}
	return n
}

// Wins sums wins across processes.
func (m *Metrics) Wins() int {
	n := 0
	for _, w := range m.PerProcWins {
		n += w
	}
	return n
}

// SuccessRate is wins/attempts.
func (m *Metrics) SuccessRate() float64 {
	if m.Attempts() == 0 {
		return 0
	}
	return float64(m.Wins()) / float64(m.Attempts())
}

// ThunkOps returns the number of Tx operations of the standard
// invariant-checking critical section for lock sets of size l with the
// given padding.
func ThunkOps(l, extra int) int { return 5*l + extra + 1 }

// ThunkSteps converts ThunkOps into the simulated step bound T (each
// idempotent op costs at most ~8 steps).
func ThunkSteps(l, extra int) int { return 8 * ThunkOps(l, extra) }

// instrumentation is the shared invariant-checking state.
type instrumentation struct {
	held      []*idem.Cell
	ctr       []*idem.Cell
	violation *idem.Cell
	pad       *idem.Cell
}

func newInstrumentation(numLocks int) *instrumentation {
	ins := &instrumentation{
		held:      make([]*idem.Cell, numLocks),
		ctr:       make([]*idem.Cell, numLocks),
		violation: idem.NewCell(0),
		pad:       idem.NewCell(0),
	}
	for i := 0; i < numLocks; i++ {
		ins.held[i] = idem.NewCell(0)
		ins.ctr[i] = idem.NewCell(0)
	}
	return ins
}

// thunk builds the standard critical section: open each lock's
// held-flag (recording a violation if already open), bump each lock's
// counter, pad with extra reads, close the flags.
func (ins *instrumentation) thunk(lockIdx []int, extra int) Section {
	return Section{func(r *idem.Run) {
		for _, li := range lockIdx {
			if r.Read(ins.held[li]) != 0 {
				r.Write(ins.violation, 1)
			} else {
				r.Write(ins.held[li], 1)
			}
		}
		for _, li := range lockIdx {
			v := r.Read(ins.ctr[li])
			r.Write(ins.ctr[li], v+1)
		}
		for k := 0; k < extra; k++ {
			r.Read(ins.pad)
		}
		for _, li := range lockIdx {
			r.Write(ins.held[li], 0)
		}
	}, ThunkOps(len(lockIdx), extra)}
}

// RunSim executes the workload on the algorithm under an oblivious
// schedule and verifies the mutual-exclusion invariants before
// returning metrics.
func RunSim(alg Algorithm, rc RunConfig) (*Metrics, error) {
	w := rc.Workload
	if err := w.Validate(); err != nil {
		return nil, err
	}
	procs := w.NumProcs()
	schedule := rc.Schedule
	if schedule == nil {
		schedule = sched.NewRandom(procs, rc.Seed)
	}
	maxSteps := rc.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}

	ins := newInstrumentation(w.NumLocks)
	sim := sched.New(schedule, rc.Seed)
	m := &Metrics{
		PerProcAttempts: make([]int, procs),
		PerProcWins:     make([]int, procs),
	}
	finished := make([]bool, procs)
	for i := 0; i < procs; i++ {
		i := i
		set := w.Sets[i]
		sim.Spawn(func(e env.Env) {
			for k := 0; k < rc.Rounds; k++ {
				if rc.Retry {
					roundStart := e.Steps()
					attempts := 0
					for {
						attempts++
						m.PerProcAttempts[i]++
						before := e.Steps()
						ok := alg.TryLocks(e, set, ins.thunk(set, rc.ExtraThunkOps))
						m.AttemptSteps = append(m.AttemptSteps, e.Steps()-before)
						if ok {
							m.PerProcWins[i]++
							break
						}
					}
					m.RoundSteps = append(m.RoundSteps, e.Steps()-roundStart)
					m.RoundAttempts = append(m.RoundAttempts, attempts)
				} else {
					m.PerProcAttempts[i]++
					before := e.Steps()
					if alg.TryLocks(e, set, ins.thunk(set, rc.ExtraThunkOps)) {
						m.PerProcWins[i]++
					}
					m.AttemptSteps = append(m.AttemptSteps, e.Steps()-before)
				}
			}
			finished[i] = true
		})
	}
	err := sim.Run(maxSteps)
	if err != nil {
		if !rc.AllowStarvation || !errors.Is(err, sched.ErrStepLimit) {
			return nil, err
		}
		m.Starved = true
	}
	for _, f := range finished {
		if f {
			m.FinishedProcs++
		}
	}

	// Invariant checks.
	e := env.NewNative(procs, 1)
	if ins.violation.Load(e) != 0 {
		return nil, fmt.Errorf("bench: %s violated mutual exclusion on %s (seed %d)",
			alg.Name(), w.Name, rc.Seed)
	}
	if !m.Starved {
		want := make([]uint64, w.NumLocks)
		for i, set := range w.Sets {
			for _, li := range set {
				want[li] += uint64(m.PerProcWins[i])
			}
		}
		for li := range want {
			if got := ins.ctr[li].Load(e); got != want[li] {
				return nil, fmt.Errorf(
					"bench: %s lost or duplicated critical sections on lock %d: counter %d, wins %d (seed %d)",
					alg.Name(), li, got, want[li], rc.Seed)
			}
		}
	}
	return m, nil
}
