package wflocks

import "sync/atomic"

// This file holds the shared bounded-ring protocol: the cell-resident
// state and step helpers that WorkPool (one ring per shard, two-lock
// steals; Queue is its one-shard case) and Log (one ring per shard,
// broadcast cursors) build on. The ring owns everything a lock
// protects; the owner brings the locking.

// qring is the cell-resident state of one bounded ring: monotone
// head/tail tickets and per-slot sequence numbers and elements, plus
// the traffic counters. All cell mutation happens inside critical
// sections through the enqOne/deqOne/moveOne/reclaim step helpers,
// whose operation sequences are deterministic given cell reads — the
// idempotence contract for helper re-execution.
//
// Head and tail are monotone tickets: enqueue number t writes slot
// t mod capacity, dequeue number h reads slot h mod capacity. Each slot
// carries a sequence cell following the classic bounded-MPMC protocol —
// seq == t while the slot awaits enqueue ticket t, t+1 while it holds
// that ticket's element, and t+capacity once dequeue t's lap frees it.
// Under the owner's lock the sequence numbers are not needed for mutual
// exclusion; they are the occupancy audit that makes the ring's index
// arithmetic checkable (the model-based fuzz tests verify them across
// wraparound), exactly the role the engine's meta words play for the
// shard table.
type qring[T any] struct {
	vc       Codec[T]
	sc       ScalarCodec[T] // vc if it is single-word, else nil
	capacity int
	mask     uint64

	head *Cell[uint64] // next dequeue ticket
	tail *Cell[uint64] // next enqueue ticket
	seq  []*Cell[uint64]
	vals []*Cell[T]

	// Counters, bumped by owners after their sections (mapframe.go):
	// exact at quiescence.
	enqs    atomic.Uint64 // completed enqueues
	deqs    atomic.Uint64 // completed dequeues
	fulls   atomic.Uint64 // attempts that observed a full ring
	empties atomic.Uint64 // attempts that observed an empty ring
}

// init builds the ring in place with the given power-of-two capacity.
// Slot i starts with sequence number i — "awaiting enqueue ticket i" —
// and a zeroed element (never decoded before an enqueue writes it, so
// no codec invocation happens at construction).
func (r *qring[T]) init(vc Codec[T], capacity int) {
	r.vc, r.capacity, r.mask = vc, capacity, uint64(capacity-1)
	r.sc, _ = vc.(ScalarCodec[T])
	r.head, r.tail = NewCell(uint64(0)), NewCell(uint64(0))
	r.seq, r.vals = make([]*Cell[uint64], capacity), make([]*Cell[T], capacity)
	for i := 0; i < capacity; i++ {
		r.seq[i] = NewCell(uint64(i))
		r.vals[i] = newResultCell(vc)
	}
}

// handout carries the elements a section hands its owner (see
// mapframe.go): one element under a scalar codec rides word, anything
// else result cells.
type handout[T any] struct {
	cells []*Cell[T]
	word  atomic.Uint64
}

// init readies h for up to n elements of ring r.
func (h *handout[T]) init(r *qring[T], n int) {
	if r.sc != nil && n == 1 {
		return
	}
	h.cells = make([]*Cell[T], n)
	for i := range h.cells {
		h.cells[i] = newResultCell(r.vc)
	}
}

// put publishes element i inside the section.
func (h *handout[T]) put(tx *Tx, r *qring[T], i int, v T) {
	if h.cells == nil {
		h.word.Store(r.sc.EncodeWord(v))
	} else {
		Put(tx, h.cells[i], v)
	}
}

// get reads element i after the section.
func (h *handout[T]) get(p *Process, r *qring[T], i int) T {
	if h.cells == nil {
		return r.sc.DecodeWord(h.word.Load())
	}
	return h.cells[i].Get(p)
}

// enqOne appends v inside a critical section, reporting false when the
// ring is full. Reads-then-writes on the ticket cells are
// read-your-writes, so batch bodies can call it repeatedly.
func (r *qring[T]) enqOne(tx *Tx, v T) bool {
	h := Get(tx, r.head)
	t := Get(tx, r.tail)
	if t-h >= uint64(r.capacity) {
		return false
	}
	i := int(t & r.mask)
	Put(tx, r.vals[i], v)
	Put(tx, r.seq[i], t+1)
	Put(tx, r.tail, t+1)
	return true
}

// deqOne pops the oldest element inside a critical section, reporting
// false when the ring is empty. The freed slot's sequence advances a
// full lap (h+capacity): it now awaits the enqueue ticket that will
// next land on it.
func (r *qring[T]) deqOne(tx *Tx) (v T, ok bool) {
	h := Get(tx, r.head)
	t := Get(tx, r.tail)
	if h == t {
		return v, false
	}
	i := int(h & r.mask)
	v = Get(tx, r.vals[i])
	Put(tx, r.seq[i], h+uint64(r.capacity))
	Put(tx, r.head, h+1)
	return v, true
}

// moveOne migrates one element from the head of `from` to the tail of
// `to` inside a critical section, reporting false when from is empty
// or to is full. Migration preserves the moved elements' relative
// order and is not an enqueue or a dequeue: the element was counted
// when it entered the pool.
func moveOne[T any](tx *Tx, from, to *qring[T]) bool {
	h := Get(tx, from.head)
	t := Get(tx, from.tail)
	if h == t {
		return false
	}
	th := Get(tx, to.head)
	tt := Get(tx, to.tail)
	if tt-th >= uint64(to.capacity) {
		return false
	}
	i := int(h & from.mask)
	j := int(tt & to.mask)
	Put(tx, to.vals[j], Get(tx, from.vals[i]))
	Put(tx, to.seq[j], tt+1)
	Put(tx, to.tail, tt+1)
	Put(tx, from.seq[i], h+uint64(from.capacity))
	Put(tx, from.head, h+1)
	return true
}

// reclaim frees up to max slots from the head without reading their
// elements, stopping at ticket upto: the bulk variant of deqOne's
// slot-freeing half, used by Log trim (the elements were broadcast, not
// consumed-once, so nothing is popped). Freed slots advance their
// sequence a full lap; the owner counts them as dequeues. Returns the
// number freed.
func (r *qring[T]) reclaim(tx *Tx, upto uint64, max int) int {
	h := Get(tx, r.head)
	n := 0
	for h < upto && n < max {
		i := int(h & r.mask)
		Put(tx, r.seq[i], h+uint64(r.capacity))
		h++
		n++
	}
	if n > 0 {
		Put(tx, r.head, h)
	}
	return n
}

// lenWith reads the ring's occupancy lock-free under an existing
// process handle (see Queue.Len for the consistency caveat).
func (r *qring[T]) lenWith(p *Process) int {
	t := r.tail.Get(p)
	h := r.head.Get(p)
	n := int(t - h)
	if n < 0 {
		n = 0
	}
	if n > r.capacity {
		n = r.capacity
	}
	return n
}
