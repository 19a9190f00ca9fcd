// Package core implements the paper's primary contribution: the
// randomized wait-free lock algorithm of Section 6 (Algorithm 3), in
// both the known-bounds variant (Theorems 6.1 and 6.9) and the
// unknown-bounds variant of Section 6.2 (Theorem 6.10).
//
// Each lock is an active set object (Algorithm 1); the system of locks
// forms a multi active set (Algorithm 2). A tryLock attempt publishes
// one record, its descriptor: the lock set, the execution of its
// critical-section thunk (an idem.Exec), a priority, and a status. The
// attempt:
//
//  1. helps every revealed descriptor currently on any of its locks run
//     to a decision, so that no descriptor whose priority the player
//     adversary has already seen can compete with this attempt;
//  2. stalls until exactly T0 = c·κ²·L²·T of its own steps have passed
//     since the attempt began, then inserts itself into its locks'
//     active sets and reveals a uniformly random priority (the reveal
//     step) — the fixed delay makes the reveal time a function of the
//     start time alone, so the adversary gains nothing by racing it;
//  3. competes: scans its locks' sets, eliminating the lower-priority
//     descriptor of every active pair, then tries to move itself from
//     active to won; any encountered winner's thunk is executed to
//     completion before this attempt's own, which yields mutual
//     exclusion with idempotence (Definition 4.3);
//  4. removes itself and stalls until T1 = c′·κ·L·T further steps have
//     passed, fixing the attempt's total length.
//
// The attempt succeeds (and its thunk has run) if and only if its
// status ended as won; it succeeds with probability at least 1/C_p
// against an adaptive player adversary and an oblivious scheduler.
//
// # Deviation from Section 6.2
//
// In the unknown-bounds variant the paper's attempt snapshots its
// locks' active sets between the participation reveal and the priority
// reveal and then compares priorities against those local copies only.
// This reconstruction takes the snapshot — same steps, same
// power-of-two padding around it, so phase lengths are unchanged — but
// keeps no copy: run compares against the live sets in both variants,
// which is what lets the Section 6.1 safety argument apply verbatim.
// A kept copy would also tie each descriptor to the ones before it and
// so keep every past attempt reachable.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"wflocks/internal/activeset"
	"wflocks/internal/arena"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/multiset"
	"wflocks/internal/obs"
)

// padCounter is an atomic counter padded out to its own cache line so
// that heavily written counters do not false-share with their
// neighbors or with the read-mostly fields around them.
type padCounter struct {
	atomic.Uint64
	_ [56]byte
}

// scratch is the per-process allocation state for attempt records.
// Descriptors (with their execs) and the lock sets they publish are
// read by helpers at unbounded staleness, so the bump arenas hand each
// out once and never recycle it (internal/arena). members is not
// published: it is the helping phase's reused buffer (revealedMembers).
type scratch struct {
	records arena.Arena[Descriptor]
	locks   arena.Slices[*Lock]
	sets    arena.Slices[*activeset.Set[Descriptor]]
	slots   arena.Slices[int]
	members []*Descriptor
}

// newDescriptor validates locks and returns a fresh pending descriptor
// running thunk within maxOps operations, from e's process arena (the
// heap when e carries none). The lock set is copied.
func (s *System) newDescriptor(e env.Env, locks []*Lock, thunk idem.Thunk, maxOps int) *Descriptor {
	if len(locks) == 0 || len(locks) > s.cfg.MaxLocks {
		panic(fmt.Sprintf("core: lock set size %d outside [1, %d]", len(locks), s.cfg.MaxLocks))
	}
	var p *Descriptor
	if sc := scratchOf(e); sc != nil {
		p = sc.records.New()
		p.locks = sc.locks.Make(len(locks))
		copy(p.locks, locks)
	} else {
		p = &Descriptor{locks: append([]*Lock(nil), locks...)}
	}
	p.sys = s
	p.thunk.Init(e, thunk, maxOps)
	p.priority.Store(priorityPending)
	p.status.Store(StatusActive)
	return p
}

// scratchOf returns e's core scratch, or nil when e carries none (the
// deterministic simulator); callers fall back to plain allocation.
func scratchOf(e env.Env) *scratch {
	p := env.ScratchOf(e, env.ScratchCore)
	if p == nil {
		return nil
	}
	s, ok := (*p).(*scratch)
	if !ok {
		s = &scratch{}
		*p = s
	}
	return s
}

// Status of a descriptor. A descriptor starts active and changes
// status at most once, to won or lost (Algorithm 3).
const (
	StatusActive int32 = iota + 1
	StatusWon
	StatusLost
)

// StatusName renders a status value for diagnostics.
func StatusName(s int32) string {
	switch s {
	case StatusActive:
		return "active"
	case StatusWon:
		return "won"
	case StatusLost:
		return "lost"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// Priority sentinels. A pending descriptor has priority -1 (its multi
// active set flag is false). In the unknown-bounds variant, priorityTBD
// marks the participation-reveal step of Section 6.2: the descriptor is
// competing but its priority is not yet drawn.
const (
	priorityPending int64 = -1
	priorityTBD     int64 = 0
)

// Config parameterizes a lock System.
type Config struct {
	// Kappa is κ, the upper bound on the point contention of any single
	// lock. Required in known-bounds mode; in unknown-bounds mode it is
	// ignored by the algorithm (but may be used by workloads).
	Kappa int

	// MaxLocks is L, the upper bound on the number of locks in any
	// tryLock attempt's lock set.
	MaxLocks int

	// MaxThunkSteps is T, the upper bound on the number of steps of any
	// critical-section thunk.
	MaxThunkSteps int

	// NumProcs is P, the total number of processes. Unknown-bounds mode
	// sizes announcement arrays with P instead of κ.
	NumProcs int

	// DelayC and DelayC1 are the paper's "sufficiently large" constants
	// c and c′ in T0 = c·κ²·L²·T and T1 = c′·κ·L·T. Zero selects the
	// defaults.
	DelayC  int
	DelayC1 int

	// DisableDelays turns off the fixed delays. Unsafe for fairness —
	// provided only for the E9 ablation experiment.
	DisableDelays bool

	// FastPath enables the uncontended fast path: attempts that observe
	// every lock in their set free skip all delay stalls (see TryLocks).
	// Off by default so the core experiments and the simulator retain
	// the paper-exact timing-oblivious behavior — attempt lengths must
	// not depend on observed contention under the adversary model. The
	// public Manager enables it.
	FastPath bool

	// UnknownBounds selects the Section 6.2 variant: announcement
	// arrays sized P, split participation/priority reveal with a set
	// snapshot between the two (see the package comment), and
	// delay-to-power-of-two instead of fixed delays.
	UnknownBounds bool

	// Obs, when non-nil, attaches the observability recorder: delay
	// and help-run histograms are recorded on every attempt, and — if
	// the recorder carries a flight-recorder ring — sampled attempts
	// emit lifecycle events. Nil (the default, and always the case for
	// the simulator and the paper experiments) keeps the hot path to a
	// single branch per hook site. Recording never consumes Env steps,
	// so simulated schedules and the paper's step bounds are unchanged
	// by its presence.
	Obs *obs.Recorder
}

// Default delay constants. They are calibrated so that the help phase
// and competition phase of an attempt always finish within the delay
// targets for the workloads in this repository (verified by test and
// tracked by the DelayOverruns counter).
const (
	defaultDelayC  = 8
	defaultDelayC1 = 16
)

// System is a family of locks sharing one configuration. Locks from
// different Systems must not be mixed in one tryLock.
type System struct {
	cfg Config

	// Counters for experiments and tests (atomic), each padded to its
	// own cache line: attempts and wins are bumped by every process on
	// every lock operation, and sharing a line would put the hottest
	// write traffic of the whole system on one contended line.
	_             [64]byte
	attempts      padCounter
	wins          padCounter
	delayOverruns padCounter
	fastPath      padCounter
}

// NewSystem validates cfg and creates a System.
func NewSystem(cfg Config) (*System, error) {
	if cfg.MaxLocks <= 0 {
		return nil, errors.New("core: MaxLocks must be positive")
	}
	if cfg.MaxThunkSteps <= 0 {
		return nil, errors.New("core: MaxThunkSteps must be positive")
	}
	if cfg.UnknownBounds {
		if cfg.NumProcs <= 0 {
			return nil, errors.New("core: NumProcs must be positive in unknown-bounds mode")
		}
	} else if cfg.Kappa <= 0 {
		return nil, errors.New("core: Kappa must be positive in known-bounds mode")
	}
	if cfg.DelayC == 0 {
		cfg.DelayC = defaultDelayC
	}
	if cfg.DelayC1 == 0 {
		cfg.DelayC1 = defaultDelayC1
	}
	if cfg.DelayC < 0 || cfg.DelayC1 < 0 {
		return nil, errors.New("core: delay constants must be non-negative")
	}
	return &System{cfg: cfg}, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// t0 is the fixed pre-reveal delay T0 = c·κ²·L²·T.
func (s *System) t0() uint64 {
	k, l, t := uint64(s.cfg.Kappa), uint64(s.cfg.MaxLocks), uint64(s.cfg.MaxThunkSteps)
	return uint64(s.cfg.DelayC) * k * k * l * l * t
}

// t1 is the fixed post-run delay T1 = c′·κ·L·T.
func (s *System) t1() uint64 {
	k, l, t := uint64(s.cfg.Kappa), uint64(s.cfg.MaxLocks), uint64(s.cfg.MaxThunkSteps)
	return uint64(s.cfg.DelayC1) * k * l * t
}

// Attempts reports the number of TryLocks calls so far.
func (s *System) Attempts() uint64 { return s.attempts.Load() }

// Wins reports the number of successful TryLocks calls so far.
func (s *System) Wins() uint64 { return s.wins.Load() }

// DelayOverruns reports how many times an attempt reached a delay point
// having already exceeded the delay target — i.e. how often the
// configured delay constants were too small to enforce Observation 6.7.
// Experiments assert this stays zero.
func (s *System) DelayOverruns() uint64 { return s.delayOverruns.Load() }

// FastPathAttempts reports how many TryLocks attempts took the
// uncontended fast path: every lock in the attempt's set was observed
// free at the start, so the attempt ran the full protocol (helping,
// announcement, idempotent execution — safety is untouched) but
// skipped all delay stalls. See the fast-path discussion on TryLocks.
func (s *System) FastPathAttempts() uint64 { return s.fastPath.Load() }

// Lock is a single fine-grained lock: an active set of descriptors.
type Lock struct {
	sys *System
	set *activeset.Set[Descriptor]
	id  int

	// Per-lock observability counters (atomic), cache-line padded: the
	// read-mostly header above (sys/set/id, loaded on every attempt)
	// must not share a line with counters every competing process
	// writes, and the counters must not share lines with each other.
	_           [64]byte
	attempts    padCounter
	wins        padCounter
	helps       padCounter
	completions padCounter
}

var lockCounter atomic.Int64

// NewLock creates a lock belonging to this system. The announcement
// array has κ slots in known-bounds mode and P slots in unknown-bounds
// mode (Section 6.2).
func (s *System) NewLock() *Lock {
	capacity := s.cfg.Kappa
	if s.cfg.UnknownBounds {
		capacity = s.cfg.NumProcs
	}
	return &Lock{
		sys: s,
		set: activeset.New[Descriptor](capacity),
		id:  int(lockCounter.Add(1)),
	}
}

// ID returns a process-wide unique identifier for the lock (useful for
// deterministic ordering in baselines and diagnostics).
func (l *Lock) ID() int { return l.id }

// Counters reports the lock's observability counters: attempts whose
// lock set includes this lock, wins among those attempts, helps that
// other attempts ran on this lock's still-undecided descriptors, and
// completions: won descriptors whose critical section had not finished
// when another attempt's helping phase ran it (a stalled holder's body
// finished on its behalf). An attempt is counted before it can win, so
// wins is loaded first: a reader racing live traffic never sees more
// wins than attempts.
func (l *Lock) Counters() (attempts, wins, helps, completions uint64) {
	wins = l.wins.Load()
	return l.attempts.Load(), wins, l.helps.Load(), l.completions.Load()
}

// Descriptor is a tryLock attempt's shared record (Algorithm 3): the
// lock set, the thunk's execution, the priority (doubling as the
// multi-active-set flag) and the status.
type Descriptor struct {
	sys      *System
	locks    []*Lock
	thunk    idem.Exec
	priority atomic.Int64
	status   atomic.Int32

	// startStep is the owner's step count when the attempt began; the
	// fixed delays are measured against it (owner-only).
	startStep uint64
	// revealStep is the owner's step count at the reveal step.
	revealStep uint64

	// noDelay marks an attempt on the uncontended fast path: every
	// lock in the set was observed free at the start, so all delay
	// stalls are skipped. Owner-only — written before announcement,
	// read only by the owner's own delay points.
	noDelay bool

	// traced marks an attempt sampled into the flight recorder; like
	// noDelay it is owner-only (helpers never read it). delayIters
	// accumulates the delay-schedule steps charged to this attempt
	// across its delay points, recorded once at attempt end.
	traced     bool
	delayIters uint64
}

// Status returns the descriptor's current status.
func (p *Descriptor) Status() int32 { return p.status.Load() }

// Priority returns the descriptor's current priority value.
func (p *Descriptor) Priority() int64 { return p.priority.Load() }

// Flagged implementation: the priority field doubles as the flag
// (Algorithm 3 lines 7-13). GetFlag is true once the priority is
// revealed; SetFlag performs the T0 delay and the reveal step; and
// ClearFlag resets the priority to pending.

// GetFlag reports whether the descriptor's priority is revealed.
func (p *Descriptor) GetFlag(e env.Env) bool {
	e.Step()
	return p.priority.Load() > 0
}

// SetFlag delays until T0 total steps have been taken since the attempt
// started, then draws and reveals the priority (the reveal step). Only
// the owner calls SetFlag (tryLocks is never helped; only run is).
func (p *Descriptor) SetFlag(e env.Env) {
	if !p.sys.cfg.DisableDelays && !p.noDelay {
		target := p.startStep + p.sys.t0()
		if e.Steps() > target {
			p.sys.delayOverruns.Add(1)
		}
		p.stallTo(e, target)
	}
	pr := env.RandPriority(e)
	e.Step()
	p.priority.Store(pr) // reveal step
	p.revealStep = e.Steps()
}

// stallTo is env.StallUntil with delay accounting: when a recorder is
// attached, the steps about to be burned are charged to the attempt
// (owner-only field) and, on sampled attempts, emitted as an EvDelay
// event carrying the computed bound. Only the owner reaches delay
// points, so the accounting needs no synchronization.
func (p *Descriptor) stallTo(e env.Env, target uint64) {
	if rec := p.sys.cfg.Obs; rec != nil {
		if now := e.Steps(); target > now {
			iters := target - now
			p.delayIters += iters
			rec.RecDelay(p.locks[0].id, iters)
			if p.traced {
				rec.TraceEvent(obs.EvDelay, e.Pid(), p.locks[0].id, iters)
			}
		}
	}
	env.StallUntil(e, target)
}

// endAttempt closes the attempt's observability window: total steps and
// charged delay steps land in the histograms, and sampled attempts emit
// their decision event.
func (s *System) endAttempt(e env.Env, p *Descriptor, won bool) {
	rec := s.cfg.Obs
	if rec == nil {
		return
	}
	rec.EndAttempt(e.Pid(), p.locks[0].id, e.Steps()-p.startStep, p.delayIters)
	if p.traced {
		kind := obs.EvLose
		if won {
			kind = obs.EvWin
		}
		rec.TraceEvent(kind, e.Pid(), p.locks[0].id, 0)
	}
}

// countHelp bumps l's help counters for descriptor q, found by an
// attempt's helping phase, and reports whether q is still undecided.
// Re-running an already-decided descriptor is a help only when it won
// and its critical section has not finished: decided descriptors linger
// in the set until their owner removes them.
func countHelp(l *Lock, q *Descriptor) (active bool) {
	switch q.Status() {
	case StatusActive:
		l.helps.Add(1)
		return true
	case StatusWon:
		if !q.thunk.Finished() {
			l.completions.Add(1)
		}
	}
	return false
}

// helpOne runs descriptor q to a decision on l's behalf, timing the run
// when a recorder is attached. active reports whether q was still
// undecided (the condition under which helps was bumped); only those
// runs are timed, so help completions are counted but not timed.
func (s *System) helpOne(e env.Env, p *Descriptor, l *Lock, q *Descriptor, active bool) {
	rec := s.cfg.Obs
	if rec == nil || !active {
		s.run(e, q)
		return
	}
	start := time.Now()
	s.run(e, q)
	ns := uint64(time.Since(start))
	rec.RecHelp(e.Pid(), l.id, ns)
	if p.traced {
		rec.TraceEvent(obs.EvHelp, e.Pid(), l.id, ns)
	}
}

// ClearFlag resets the priority to pending.
func (p *Descriptor) ClearFlag(e env.Env) {
	e.Step()
	p.priority.Store(priorityPending)
}

var _ multiset.Flagged = (*Descriptor)(nil)

// TryLocks performs one tryLock attempt (Algorithm 3, tryLocks): it
// tries to acquire every lock in locks and, on success, thunk has been
// executed (possibly by a helper) before TryLocks returns true. On
// failure the thunk has not run and will never run. It must perform at
// most maxOps shared-memory operations and MaxThunkSteps simulated
// steps. locks must hold at most MaxLocks locks of this System, with
// no duplicates.
//
// Uncontended fast path (Config.FastPath): an attempt that observes
// every lock's announcement array empty at its start skips all delay
// stalls (T0/T1, or the power-of-two padding) and runs only the
// protocol. Mutual exclusion and wait-freedom hold as before (delays
// only burn the owner's private steps; cf. DisableDelays); what the
// skip gives up is the fairness bound when two attempts race from an
// observed-free state, which their random priorities settle
// symmetrically but outside the paper's adversarial guarantee.
func (s *System) TryLocks(e env.Env, locks []*Lock, thunk idem.Thunk, maxOps int) bool {
	p := s.newDescriptor(e, locks, thunk, maxOps)
	s.attempts.Add(1)
	p.startStep = e.Steps()
	if rec := s.cfg.Obs; rec != nil {
		if p.traced = rec.SampleAttempt(); p.traced {
			rec.TraceEvent(obs.EvStart, e.Pid(), p.locks[0].id, uint64(len(p.locks)))
		}
	}
	if s.cfg.UnknownBounds {
		return s.tryLocksUnknown(e, p)
	}
	return s.tryLocksKnown(e, p)
}

// Attempt is a prepared tryLock attempt whose descriptor can be
// observed while it runs. The adversary experiments use this to model
// the adaptive player adversary, which sees the whole history —
// including other attempts' revealed priorities — when deciding when to
// start an attempt.
type Attempt struct {
	s   *System
	p   *Descriptor
	ran bool
}

// NewAttempt prepares (but does not start) a tryLock attempt.
func (s *System) NewAttempt(locks []*Lock, thunk idem.Thunk, maxOps int) *Attempt {
	return &Attempt{s: s, p: s.newDescriptor(nil, locks, thunk, maxOps)}
}

// Descriptor exposes the attempt's descriptor for observation.
func (a *Attempt) Descriptor() *Descriptor { return a.p }

// Run executes the attempt on the calling process. It must be called
// exactly once.
func (a *Attempt) Run(e env.Env) bool {
	if a.ran {
		panic("core: Attempt.Run called twice")
	}
	a.ran = true
	a.s.attempts.Add(1)
	a.p.startStep = e.Steps()
	if a.s.cfg.UnknownBounds {
		return a.s.tryLocksUnknown(e, a.p)
	}
	return a.s.tryLocksKnown(e, a.p)
}

// tryLocksKnown is the Algorithm 3 body for the known-bounds variant.
func (s *System) tryLocksKnown(e env.Env, p *Descriptor) bool {
	for _, l := range p.locks {
		l.attempts.Add(1)
	}
	s.observeFree(e, p)

	// Helping phase (lines 17-20): run every revealed descriptor on any
	// of our locks to its decision, clearing the playing field of
	// descriptors whose priorities the adversary may already know
	// (countHelp says which of them count as helps).
	for _, l := range p.locks {
		for _, q := range multiset.GetSet[Descriptor, *Descriptor](e, l.set) {
			s.helpOne(e, p, l, q, countHelp(l, q))
		}
	}

	// Insert into every lock's active set; SetFlag inside performs the
	// T0 delay and the reveal step (line 21) — skipped on the fast path.
	sets := s.lockSets(e, p)
	slots := multiset.MultiInsert(e, p, sets)
	checkSlots(s, slots)

	// Compete (line 22).
	s.run(e, p)

	// Clean up (line 23).
	multiset.MultiRemove(e, p, sets, slots)

	// Fixed post-run delay (line 24): T1 steps since the reveal step.
	if !s.cfg.DisableDelays && !p.noDelay {
		target := p.revealStep + s.t1()
		if e.Steps() > target {
			s.delayOverruns.Add(1)
		}
		p.stallTo(e, target)
	}

	won := p.status.Load() == StatusWon
	if won {
		s.wins.Add(1)
		for _, l := range p.locks {
			l.wins.Add(1)
		}
	}
	s.endAttempt(e, p, won)
	return won
}

// observeFree takes the fast-path observation: if every lock's
// announcement array is empty, the attempt skips all delay stalls (see
// TryLocks). The observation is one GetSet per lock, so it costs L
// steps and preserves the attempt's O(·) step bounds.
func (s *System) observeFree(e env.Env, p *Descriptor) {
	if !s.cfg.FastPath {
		return
	}
	for _, l := range p.locks {
		if len(l.set.GetSet(e)) != 0 {
			return
		}
	}
	p.noDelay = true
	s.fastPath.Add(1)
	if p.traced {
		s.cfg.Obs.TraceEvent(obs.EvFastPath, e.Pid(), p.locks[0].id, 0)
	}
}

// lockSets projects the descriptor's locks to their active sets.
func (s *System) lockSets(e env.Env, p *Descriptor) []*activeset.Set[Descriptor] {
	var sets []*activeset.Set[Descriptor]
	if sc := scratchOf(e); sc != nil {
		sets = sc.sets.Make(len(p.locks))
	} else {
		sets = make([]*activeset.Set[Descriptor], len(p.locks))
	}
	for i, l := range p.locks {
		sets[i] = l.set
	}
	return sets
}
