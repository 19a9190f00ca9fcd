package core

import (
	"math/bits"

	"wflocks/internal/env"
)

// tryLocksUnknown is the Section 6.2 variant of the tryLock attempt for
// when κ and L are unknown to the algorithm (Theorem 6.10). The
// differences from the known-bounds body:
//
//   - announcement arrays are sized P (handled by NewLock);
//   - the reveal step is split into a participation reveal (priority
//     becomes TBD: the descriptor is competing, but its priority is not
//     drawn) and a priority reveal;
//   - between the two reveals the attempt snapshots the active sets of
//     all its locks, as Section 6.2 does; this reconstruction keeps the
//     snapshot's steps but not its contents, since run compares
//     priorities against the live sets (see the package comment);
//   - instead of fixed delays derived from κ, L and T, the attempt pads
//     its step count to the next power of two at each phase boundary
//     (the guess-and-double trick), so the adversary can steer the
//     attempt's phase lengths to only one of log(κ·L·T) many values —
//     which is exactly the log factor lost in Theorem 6.10's success
//     probability.
func (s *System) tryLocksUnknown(e env.Env, p *Descriptor) bool {
	for _, l := range p.locks {
		l.attempts.Add(1)
	}
	s.observeFree(e, p)

	// Helping phase: help every descriptor with a *revealed* priority.
	// TBD descriptors must not be helped: running them would drive them
	// to a decision before they have drawn a priority.
	for _, l := range p.locks {
		for _, q := range s.revealedMembers(e, l) {
			s.helpOne(e, p, l, q, countHelp(l, q))
		}
	}

	// Insert into every lock's announcement array.
	p.ClearFlag(e)
	sc := scratchOf(e)
	var slots []int
	if sc != nil {
		slots = sc.slots.Make(len(p.locks))
	} else {
		slots = make([]int, len(p.locks))
	}
	for i, l := range p.locks {
		slots[i] = l.set.Insert(e, p)
	}
	checkSlots(s, slots)

	// Pad to a power of two, then the participation reveal. On the
	// fast path the padding stalls are skipped (see TryLocks).
	s.stallToPowerOfTwo(e, p)
	e.Step()
	p.priority.Store(priorityTBD)

	// Snapshot the membership of every lock (participating descriptors
	// only: those at or past their participation reveal). The copies
	// are not kept: run compares against the live sets (see the package
	// comment), so the scan stands for Section 6.2's snapshot phase in
	// the attempt's step count and nothing else.
	for _, l := range p.locks {
		s.scanParticipating(e, l)
	}

	// Pad again so the snapshot phase's length is also quantized, then
	// the priority reveal.
	s.stallToPowerOfTwo(e, p)
	pr := env.RandPriority(e)
	e.Step()
	p.priority.Store(pr)
	p.revealStep = e.Steps()

	// Compete, clean up, and pad the attempt's total length.
	s.run(e, p)

	p.ClearFlag(e)
	for i, l := range p.locks {
		l.set.Remove(e, slots[i])
	}
	s.stallToPowerOfTwo(e, p)

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

// revealedMembers returns the lock's members whose priority is revealed
// (strictly positive). The list is private to the attempt and only read
// until the next call, so it lives in a buffer the process reuses: an
// arena chunk of descriptor pointers, filled only by contended
// attempts, would keep every descriptor named in it reachable.
func (s *System) revealedMembers(e env.Env, l *Lock) []*Descriptor {
	snapshot := l.set.GetSet(e)
	if len(snapshot) == 0 {
		return nil
	}
	sc := scratchOf(e)
	var out []*Descriptor
	if sc != nil {
		out = sc.members[:0]
	}
	for _, q := range snapshot {
		e.Step()
		if q.priority.Load() > 0 {
			out = append(out, q)
		}
	}
	if sc != nil {
		sc.members = out
	}
	return out
}

// scanParticipating walks the lock's members as Section 6.2's snapshot
// does, reading each one's priority to tell participating descriptors
// (priority TBD or revealed) from pending ones, and keeps nothing.
func (s *System) scanParticipating(e env.Env, l *Lock) {
	for _, q := range l.set.GetSet(e) {
		e.Step()
		q.priority.Load()
	}
}

// stallToPowerOfTwo pads the attempt's step count (measured from its
// start) up to the next power of two. Skipped entirely on the
// uncontended fast path.
func (s *System) stallToPowerOfTwo(e env.Env, p *Descriptor) {
	if s.cfg.DisableDelays || p.noDelay {
		return
	}
	elapsed := e.Steps() - p.startStep
	if elapsed == 0 {
		elapsed = 1
	}
	target := nextPowerOfTwo(elapsed)
	p.stallTo(e, p.startStep+target)
}

// nextPowerOfTwo returns the smallest power of two >= n (n > 0).
func nextPowerOfTwo(n uint64) uint64 {
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len64(n)
}
