// Package activeset implements the linearizable, adaptive active set
// object of Section 5.1 (Algorithm 1).
//
// An active set tracks membership: Insert and Remove add and delete an
// element, and GetSet returns the current members. The implementation
// is an announcements array of C slots; each slot has an owner and a
// set pointer. Insert claims the first ownerless slot by CAS; Remove
// clears the owner. Both then "climb" from their slot to slot 0,
// propagating ownership changes upward so that slot 0's set field
// always reflects a linearizable snapshot of the membership, making
// GetSet constant-time.
//
// Step complexity is adaptive (Theorem 5.2 context): Insert and Remove
// take O(k) steps where k is the current size of the set plus the
// point contention; GetSet takes O(1) steps.
//
// One correction to the paper's pseudocode: Algorithm 1 line 10 reads
// the slot's own set for the top slot ("if j == C"). The set field of
// slot j must equal the owners of slots ≥ j for GetSet to be correct,
// so for the top slot the "set above" is the empty set — otherwise
// removed members would be retained in the top slot's set forever.
package activeset

import (
	"sync/atomic"

	"wflocks/internal/arena"
	"wflocks/internal/env"
)

// members is an immutable snapshot of a member list. Snapshots are
// never mutated after publication; climb installs fresh ones by CAS.
// A one-member snapshot, what an uncontended lock's slots hold, keeps
// its member in one and items points there, so it reaches that member
// and nothing else. A longer list, which only contention builds, is
// its own heap object: carved from a chunk, it would share the chunk
// with lists built long before and after it (contended climbs are
// rare, so such a chunk stays current for long), and one live snapshot
// would keep every member the chunk names reachable.
type members[T any] struct {
	items []*T
	one   [1]*T
}

// scratch is the per-process allocation state for climb's published
// snapshots. Snapshot pointers are installed by CAS and read at
// arbitrary staleness, so they must stay fresh forever — the bump
// arenas abandon their chunks rather than recycling (internal/arena).
// Snapshots of the empty set, what an idle lock's slots hold, have an
// arena of their own: its chunks hold no pointers, so an idle lock does
// not keep alive the snapshots carved next to its own, the descriptors
// they name and everything those reach.
type scratch[T any] struct {
	members arena.Arena[members[T]]
	empties arena.Arena[members[T]]
}

// scratchOf returns e's active-set scratch for element type T, or nil
// when e carries no scratch state (callers fall back to plain
// allocation).
func scratchOf[T any](e env.Env) *scratch[T] {
	p := env.ScratchOf(e, env.ScratchActiveSet)
	if p == nil {
		return nil
	}
	s, ok := (*p).(*scratch[T])
	if !ok {
		s = &scratch[T]{}
		*p = s
	}
	return s
}

// slot is one row of the announcements array.
type slot[T any] struct {
	owner atomic.Pointer[T]
	set   atomic.Pointer[members[T]]
}

// Set is a linearizable active set with capacity C. The zero value is
// not usable; construct with New.
type Set[T any] struct {
	slots []slot[T]
}

// New returns an active set that can hold up to capacity simultaneous
// members. Algorithm 3 instantiates capacity = κ (known-bounds mode)
// or capacity = P, the number of processes (unknown-bounds mode).
func New[T any](capacity int) *Set[T] {
	if capacity <= 0 {
		panic("activeset: capacity must be positive")
	}
	s := &Set[T]{slots: make([]slot[T], capacity)}
	empty := &members[T]{}
	for i := range s.slots {
		s.slots[i].set.Store(empty)
	}
	return s
}

// Capacity reports the maximum number of simultaneous members.
func (s *Set[T]) Capacity() int { return len(s.slots) }

// Insert adds p to the set and returns the slot index that was claimed.
// The index must be passed to the matching Remove. Insert returns -1
// if the set is full, which cannot happen when capacity bounds hold
// (the paper guarantees a free slot exists when capacity ≥ the maximum
// point contention).
func (s *Set[T]) Insert(e env.Env, p *T) int {
	for i := range s.slots {
		e.Step()
		if s.slots[i].owner.CompareAndSwap(nil, p) {
			s.climb(e, i)
			return i
		}
	}
	return -1
}

// Remove deletes the member that was inserted into slot i.
func (s *Set[T]) Remove(e env.Env, i int) {
	e.Step()
	s.slots[i].owner.Store(nil)
	s.climb(e, i)
}

// GetSet returns a snapshot of the current members. The returned slice
// is immutable and must not be modified. Constant step complexity.
func (s *Set[T]) GetSet(e env.Env) []*T {
	e.Step()
	return s.slots[0].set.Load().items
}

// climb propagates ownership changes from slot i toward slot 0
// (Algorithm 1, lines 6–15). At each slot j it twice attempts to
// replace the slot's set with (set of slot j+1) ∪ {owner of slot j}.
// Two attempts suffice: if the first CAS fails, a concurrent climb
// installed a set at least as fresh; the second attempt then works
// from that fresher basis, which is the standard double-collect
// helping argument the paper's linearizability proof relies on.
func (s *Set[T]) climb(e env.Env, i int) {
	sc := scratchOf[T](e)
	for j := i; j >= 0; j-- {
		for k := 0; k < 2; k++ {
			e.Step()
			curSet := s.slots[j].set.Load()
			var above []*T
			if j+1 < len(s.slots) {
				e.Step()
				above = s.slots[j+1].set.Load().items
			}
			e.Step()
			newMember := s.slots[j].owner.Load()
			items, one := above, (*T)(nil)
			switch {
			case newMember == nil || contains(above, newMember):
			case len(above) == 0:
				items, one = nil, newMember
			default:
				items = append(append(make([]*T, 0, len(above)+1), above...), newMember)
			}
			if len(items) == 1 {
				one = items[0]
			}
			var newSet *members[T]
			switch {
			case sc == nil:
				newSet = &members[T]{items: items}
			case len(items) == 0 && one == nil:
				newSet = sc.empties.New()
			default:
				newSet = sc.members.New()
				newSet.items = items
			}
			if one != nil {
				newSet.one[0] = one
				newSet.items = newSet.one[:]
			}
			e.Step()
			s.slots[j].set.CompareAndSwap(curSet, newSet)
		}
	}
}

// Size reports the current number of members via a GetSet. Intended
// for tests and diagnostics.
func (s *Set[T]) Size(e env.Env) int {
	return len(s.GetSet(e))
}

// contains reports whether xs holds p. Membership snapshots are small
// (at most the point contention), so a linear scan preserves the O(k)
// step bound; the scan is local work attributed to the preceding step.
func contains[T any](xs []*T, p *T) bool {
	for _, x := range xs {
		if x == p {
			return true
		}
	}
	return false
}
