package sched

import (
	"errors"
	"fmt"
	"iter"

	"wflocks/internal/env"
)

// ErrStepLimit is returned by Run when the step budget is exhausted
// before every process finishes.
var ErrStepLimit = errors.New("sched: step limit reached before all processes finished")

// abortSignal is panicked inside a process's coroutine when its yield
// reports that the simulation was torn down early; the coroutine's
// wrapper recovers it after the body's deferred calls have run.
type abortSignal struct{}

// Sim is a deterministic simulator of the paper's asynchronous
// shared-memory model. Each registered process runs as an iter.Pull
// coroutine; only one runs at a time, and the (oblivious) Schedule
// decides which is resumed for each step.
type Sim struct {
	schedule Schedule
	seed     uint64
	procs    []*proc
	total    uint64 // total granted steps across all processes
	burnt    uint64 // schedule slots pointing at finished/absent procs
	started  bool
}

// proc is one simulated process.
type proc struct {
	id       int
	body     func(env.Env)
	next     func() (struct{}, bool) // grants one step; false once the body returned
	stop     func()
	yield    func(struct{}) bool // hands control back to Run; false once stopped
	steps    uint64
	rng      env.RNG
	finished bool
	err      error
}

var _ env.Env = (*proc)(nil)

// New creates a simulator with the given oblivious schedule and seed.
// Processes are registered with Spawn before calling Run.
func New(schedule Schedule, seed uint64) *Sim {
	return &Sim{schedule: schedule, seed: seed}
}

// Spawn registers a process body. The process's id is its registration
// order. The body receives an env.Env that must only be used from the
// body itself.
func (s *Sim) Spawn(body func(env.Env)) int {
	if s.started {
		panic("sched: Spawn after Run")
	}
	id := len(s.procs)
	s.procs = append(s.procs, &proc{
		id:   id,
		body: body,
		rng:  *env.NewRNG(env.Mix(s.seed, uint64(id)+1)),
	})
	return id
}

// NumProcs reports the number of registered processes.
func (s *Sim) NumProcs() int { return len(s.procs) }

// Run executes the simulation until every process finishes or maxSteps
// total steps have been granted. It returns ErrStepLimit if the budget
// ran out first. A body's panic is returned as an error naming its
// process, while the other processes run on; a body's runtime.Goexit
// ends the goroutine that called Run. Run must be called exactly once.
func (s *Sim) Run(maxSteps uint64) (err error) {
	if s.started {
		panic("sched: Run called twice")
	}
	s.started = true

	for _, p := range s.procs {
		p.next, p.stop = iter.Pull(p.run)
	}
	// However Run leaves, stopping unwinds every unfinished body
	// through its deferred calls; then a panicked process's error takes
	// precedence over the step limit.
	defer func() {
		for _, p := range s.procs {
			p.stop()
		}
		for _, p := range s.procs {
			if p.err != nil {
				err = p.err
				return
			}
		}
	}()

	running := len(s.procs)
	for running > 0 {
		// Burnt slots (schedule entries naming finished or absent
		// processes) count against the budget too: otherwise a schedule
		// that permanently stalls the only unfinished process would
		// spin forever.
		if s.total+s.burnt >= maxSteps {
			return fmt.Errorf("%w (granted %d steps, burnt %d, %d processes unfinished)",
				ErrStepLimit, s.total, s.burnt, running)
		}
		pid := s.schedule.Next(s.total + s.burnt)
		if pid < 0 || pid >= len(s.procs) || s.procs[pid].finished {
			s.burnt++
			continue
		}
		p := s.procs[pid]
		s.total++
		if _, ok := p.next(); !ok {
			p.finished = true
			running--
		}
	}
	return nil
}

// run is the process's coroutine: the first resume is its first step.
// A body that panics is recorded as finished with an error.
func (p *proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				p.err = fmt.Errorf("sched: process %d panicked: %v", p.id, r)
			}
		}
	}()
	p.steps++
	p.body(p)
}

// TotalSteps reports the total number of steps granted across all
// processes.
func (s *Sim) TotalSteps() uint64 { return s.total }

// ProcSteps reports the number of steps taken by process id.
func (s *Sim) ProcSteps(id int) uint64 { return s.procs[id].steps }

// Finished reports whether process id ran to completion.
func (s *Sim) Finished(id int) bool { return s.procs[id].finished }

// Step implements env.Env: the process yields to the scheduler and
// resumes when Run grants its next step.
func (p *proc) Step() {
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
	p.steps++
}

// Steps implements env.Env.
func (p *proc) Steps() uint64 { return p.steps }

// Rand implements env.Env.
func (p *proc) Rand() uint64 { return p.rng.Next() }

// Pid implements env.Env.
func (p *proc) Pid() int { return p.id }
