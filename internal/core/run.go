package core

import (
	"fmt"

	"wflocks/internal/env"
	"wflocks/internal/multiset"
)

// run is the core of the lock algorithm (Algorithm 3, run(p)): it
// drives descriptor p to a decision. It is called by p's owner to
// compete, and by other processes to help p finish (which is what makes
// the locks wait-free: nobody ever waits for p's owner to be
// scheduled).
//
// For every lock in p's lock set, run scans the competing descriptors.
// While p is still active, every active pair (p, q) is resolved by
// priority: the lower-priority descriptor is eliminated. Every
// descriptor encountered with a won status has its thunk executed
// (celebrateIfWon) before run moves on — so by the time p itself is
// decided and celebrated, the thunks of all earlier winners on its
// locks have completed, which yields mutual exclusion with idempotence
// (Definition 4.3; see the safety discussion in Section 6.1).
func (s *System) run(e env.Env, p *Descriptor) {
	for _, l := range p.locks {
		// Live flagged membership (Algorithm 3 line 28). The flag is
		// "priority revealed", so descriptors between their
		// participation reveal and priority reveal (unknown-bounds
		// mode) are not scanned: they have no priority to compare yet
		// and will be scanned once revealed. Live sets are scanned in
		// both modes; the package comment states the deviation from
		// Section 6.2.
		set := multiset.GetSet[Descriptor, *Descriptor](e, l.set)
		e.Step()
		if p.status.Load() == StatusActive {
			for _, q := range set {
				e.Step()
				if q.status.Load() == StatusActive {
					e.Step()
					pp := p.priority.Load()
					e.Step()
					qp := q.priority.Load()
					// Compare only revealed priorities: a pending or
					// TBD priority means the descriptor either is no
					// longer flagged (already decided — the status
					// check above races with its cleanup) or has not
					// drawn a priority yet.
					if pp > 0 && qp > 0 {
						if pp > qp {
							s.eliminate(e, q)
						} else if p != q {
							s.eliminate(e, p)
						}
					}
				}
				s.celebrateIfWon(e, q)
			}
		}
	}
	s.decide(e, p)
	s.celebrateIfWon(e, p)
}

// decide tries to finalize p as the winner (Algorithm 3 line 40). It
// succeeds exactly when nobody eliminated p first.
func (s *System) decide(e env.Env, p *Descriptor) {
	e.Step()
	p.status.CompareAndSwap(StatusActive, StatusWon)
}

// eliminate moves p from active to lost (Algorithm 3 line 43). A
// descriptor that already won cannot be eliminated: status changes at
// most once.
func (s *System) eliminate(e env.Env, p *Descriptor) {
	e.Step()
	p.status.CompareAndSwap(StatusActive, StatusLost)
}

// celebrateIfWon executes p's thunk if p won (Algorithm 3 line 46).
// The thunk is idempotent, so concurrent celebrations by several
// helpers behave as a single run.
func (s *System) celebrateIfWon(e env.Env, p *Descriptor) {
	e.Step()
	if p.status.Load() == StatusWon {
		p.thunk.Execute(e)
	}
}

// checkSlots verifies that every active-set insertion found a free
// slot. A full announcement array means the workload violated the
// configured contention bound — a configuration error worth failing
// loudly on rather than corrupting the protocol.
func checkSlots(s *System, slots []int) {
	for _, slot := range slots {
		if slot < 0 {
			panic(fmt.Sprintf(
				"core: active set full — point contention exceeded the configured bound (κ=%d, unknown=%v)",
				s.cfg.Kappa, s.cfg.UnknownBounds))
		}
	}
}
