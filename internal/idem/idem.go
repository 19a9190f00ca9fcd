// Package idem implements the paper's idempotence construction
// (Section 4.1, Theorem 4.2): any thunk using only Read, Write and CAS
// on shared memory is simulated — with constant overhead per operation
// — so that it becomes idempotent (Definition 4.1) and linearizable.
//
// Idempotence means that in any execution consisting of interleaved
// runs of the thunk (one process executing it plus any number of
// helpers re-executing it), the combined effect on shared memory is
// that of exactly one run, ending at the response of the first run to
// finish. This is what lets Algorithm 3's helpers execute a winner's
// critical section on its behalf without double-applying its effects.
//
// # Construction
//
// A thunk's code is deterministic given the responses of its shared
// memory operations, so every run issues the same operation sequence;
// the i-th operation of any run is "operation i". Each Exec (one
// logical thunk execution, possibly run by many helpers) carries a log
// with one slot per operation performed. The log slot is the canonical
// outcome of the operation: the first run to fill it decides, and
// every other run adopts the logged outcome instead of its own. A slot
// holds the box that decided its operation: the value box a Read
// observed, the commit box of the installation that took effect, or a
// sentinel box for a failed CAS.
//
// The log grows on demand, so an execution pays for the operations it
// performs and not for its budget (the T bound is a step count, not a
// memory size). It is a chain of segments: the first is created with
// the Exec and sized to the body (a Sized frame's expected operation
// count, or firstSegOps, never above maxOps); each further one is twice
// the size of its predecessor (clamped to what is left of maxOps) and
// is installed by the first run to cross the boundary with one CAS on
// the predecessor's next pointer. Losers of that CAS adopt the
// winner's segment, so all runs agree on the slot of operation i,
// and a segment, like every other published object here, is never
// recycled. Each run keeps a cursor into the chain, and an installed
// descriptor carries the address of its slot, so finding a slot is
// O(1) for the run and for whoever resolves the descriptor.
//
// Shared cells always hold immutable boxed values. Effectful
// operations (Write, CAS) never mutate a cell directly; they install a
// unique operation descriptor into the cell by CAS and then resolve it:
//
//  1. if the log slot is already filled, the operation is done — adopt
//     the logged outcome and apply no effect;
//  2. otherwise read the cell; if it holds another descriptor, help
//     resolve it first (so operations cannot be blocked — the
//     construction is itself non-blocking);
//  3. install this run's descriptor over the observed box by CAS; the
//     descriptor carries a fresh commit box holding the value the
//     operation writes;
//  4. resolve: race to CAS the commit box into the log slot; if the
//     slot then holds this descriptor's commit box, its installation is
//     the one recorded, so replace the descriptor with the commit box —
//     otherwise the operation already took effect through an earlier
//     installation (or was logged as a failed CAS), so undo by
//     restoring the displaced box, a net no-op on memory.
//
// Boxes are freshly allocated pointers, so an install CAS can never
// succeed against a stale snapshot via ABA, which is what makes step 4
// sound: at most one installation per operation is ever recorded, so
// the operation's effect is applied exactly once, at the moment of that
// installation (its linearization point). The log names the recorded
// installation by its commit box, and the slot keeps that box alive,
// so while a resolver compares against it no other installation's
// commit box can have its address.
//
// Reads log the value box they observed and adopt the first logged
// one; failed CASes are logged at the moment a helper observes a
// conflicting value.
//
// Since a slot does not record which operation filled it, determinism
// is checked per run instead: each run folds the kind and cell of
// every operation it issues into a digest, the first run to finish
// records it, and a later run that finishes with another digest
// panics.
//
// # Cost
//
// Every operation takes O(1) steps plus O(1) per interfering cell
// update during the operation. Helpers of the same Exec interfere at
// most a constant number of times per operation (install + resolve),
// so in race-free critical sections the overhead is a constant factor,
// matching Theorem 4.2; concurrent races from other thunks (which the
// paper explicitly permits, footnote 1) are charged to the interferer.
package idem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"wflocks/internal/arena"
	"wflocks/internal/env"
)

// arenas is the per-process allocation state for the construction's
// published objects. Boxes, descriptors and log segments are read by
// helpers at unbounded staleness, so none of them may ever be recycled
// — the bump arenas hand out each pointer exactly once and abandon full
// chunks to the garbage collector, which preserves the freshness
// invariant (see the ABA discussion above) while amortizing the hot
// path to a fraction of a heap allocation per object. An Exec lives in
// its caller's attempt record (Init).
//
// Fresh is not immortal: the collector frees a chunk once nothing
// points into it, and live cells and log slots point into the chunks
// of value boxes. So value boxes have an arena of their own, whose
// chunks hold no pointer at all, and nothing they reach leads back
// into the attempts that made them. Log slots, the first segment's
// too, stay out of the attempt record for the same reason: each
// installed descriptor in a process's current chunk points at its
// slot, and a chunk of slots reaches only value boxes.
//
// run is the Run of the execution the process is running: never
// published, and a process runs one thunk at a time, so one serves.
type arenas struct {
	vals  arena.Arena[box]     // committed values: desc == nil
	boxes arena.Arena[descBox] // installed descriptors
	segs  arena.Arena[logSeg]
	// logs backs the segments' slots. Segments double from the first,
	// so only a run past a few hundred operations has one that exceeds
	// what arena.Slices carves from a chunk and takes its direct make.
	logs arena.Slices[atomic.Pointer[box]]
	run  Run
}

// arenasOf returns e's idem arenas, creating them on first use, or nil
// when e carries no scratch state (the deterministic simulator). All
// allocation helpers below tolerate a nil receiver by falling back to
// plain heap allocation, which is always correct.
func arenasOf(e env.Env) *arenas {
	p := env.ScratchOf(e, env.ScratchIdem)
	if p == nil {
		return nil
	}
	a, ok := (*p).(*arenas)
	if !ok {
		a = &arenas{}
		*p = a
	}
	return a
}

// newVal returns a fresh committed box holding v.
func (a *arenas) newVal(v uint64) *box {
	if a == nil {
		return &box{val: v}
	}
	b := a.vals.New()
	b.val = v
	return b
}

// newDescBox returns a fresh box carrying a fresh descriptor that
// installs v over prev for the operation logged in slot.
func (a *arenas) newDescBox(slot *atomic.Pointer[box], v uint64, prev *box) *box {
	var db *descBox
	if a == nil {
		db = &descBox{}
	} else {
		db = a.boxes.New()
	}
	db.d = opDesc{slot: slot, commit: a.newVal(v), prev: prev}
	db.desc = &db.d
	return &db.box
}

// makeSlots returns n fresh empty log slots.
func (a *arenas) makeSlots(n int) []atomic.Pointer[box] {
	if a == nil {
		return make([]atomic.Pointer[box], n)
	}
	return a.logs.Make(n)
}

func (a *arenas) newSeg(n int) *logSeg {
	if a == nil {
		return &logSeg{slots: a.makeSlots(n)}
	}
	s := a.segs.New()
	s.slots = a.makeSlots(n)
	return s
}

// opKind identifies the kind of a simulated shared-memory operation in
// a run's digest.
type opKind uint64

const (
	opRead opKind = iota + 1
	opWrite
	opCAS
)

// box is an immutable cell state: either a plain value (desc == nil) or
// an installed operation descriptor. Boxes are never mutated after
// publication; freshness of the pointer rules out ABA on install.
type box struct {
	val  uint64
	desc *opDesc
}

// failed is the log entry of a CAS that failed. It is never installed
// in a cell, so no Read or installation logs it.
var failed = &box{}

// opDesc is an installed effectful operation (Write or CAS success
// path) of one Exec, identified by its slot in that Exec's log. commit
// is the box the cell takes if this installation is the one the slot
// records; it is fresh, so it also tells this installation apart from
// every other one.
type opDesc struct {
	slot   *atomic.Pointer[box]
	commit *box
	prev   *box // box displaced by the installation, for undo
}

// descBox is an installed descriptor's box and the descriptor, drawn
// as one object (see internal/arena): desc points at d.
type descBox struct {
	box
	d opDesc
}

// Cell is a shared memory location usable inside idempotent thunks.
// Construct with NewCell.
type Cell struct {
	p atomic.Pointer[box]
}

// NewCell returns a cell holding v.
func NewCell(v uint64) *Cell {
	c := &Cell{}
	c.p.Store(&box{val: v})
	return c
}

// Load reads the cell from outside any thunk, helping resolve any
// installed descriptor first.
func (c *Cell) Load(e env.Env) uint64 {
	for {
		e.Step()
		b := c.p.Load()
		if b.desc == nil {
			return b.val
		}
		resolve(e, c, b)
	}
}

// Store writes the cell from outside any thunk. It helps resolve any
// installed descriptor first so the write cannot bury one.
func (c *Cell) Store(e env.Env, v uint64) {
	nb := arenasOf(e).newVal(v)
	for {
		e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(e, c, b)
			continue
		}
		e.Step()
		if c.p.CompareAndSwap(b, nb) {
			return
		}
	}
}

// CompareAndSwap performs a CAS from outside any thunk.
func (c *Cell) CompareAndSwap(e env.Env, old, new uint64) bool {
	for {
		e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(e, c, b)
			continue
		}
		if b.val != old {
			return false
		}
		e.Step()
		if c.p.CompareAndSwap(b, arenasOf(e).newVal(new)) {
			return true
		}
	}
}

// Thunk is the code of a thunk: RunThunk performs one run. It must be
// deterministic: all decisions must derive from the responses of the
// Run's shared-memory operations (plus the frame's fields). It must not
// perform any other shared-memory access, must not block, and must not
// start nested tryLocks (the paper forbids lock nesting).
//
// One relaxation is permitted: because every run derives the same
// values from the canonical log, a body may publish results through
// plain atomic stores into per-execution result fields — all runs
// store the identical value, so the stores are race-free in effect and
// idempotent by construction.
type Thunk interface {
	RunThunk(r *Run)
}

// Body adapts a closure to Thunk; being pointer-shaped, it converts to
// the interface without allocating.
type Body func(r *Run)

// RunThunk implements Thunk.
func (b Body) RunThunk(r *Run) { b(r) }

// Sized is implemented by thunk frames that know how many operations a
// run of theirs usually performs; the first log segment is sized to it.
type Sized interface {
	ExpectedOps() int
}

// firstSegOps is the first segment's length for a thunk that is not
// Sized, such as a closure: most closure bodies stay within it or the
// second, and the simulator's thunks keep their segment boundaries.
const firstSegOps = 16

// Exec is one logical execution of a thunk, shared by its initiating
// process and any helpers. All of them call Execute; the combined
// effect equals exactly one run of the thunk.
type Exec struct {
	thunk  Thunk
	maxOps int
	log    logSeg // first segment of the log
	// finished is 0 until a run completes, then that run's digest|1.
	finished atomic.Uint64
}

// logSeg is one segment of an Exec's log: the slots of a contiguous
// range of operations and the segment holding the next range, nil
// until some run needs it.
type logSeg struct {
	slots []atomic.Pointer[box]
	next  atomic.Pointer[logSeg]
}

// NewExec returns a heap-allocated execution of body within maxOps
// shared-memory operations (the paper's T bound), for callers without
// an attempt record: the simulator harness, the baselines and tests.
func NewExec(body Body, maxOps int) *Exec {
	x := &Exec{}
	x.Init(nil, body, maxOps)
	return x
}

// Init makes the zero x, in place, an execution of t within maxOps
// operations, with a first log segment from e's arena (the heap when e
// has none). Helpers read an Exec at unbounded staleness, so it is
// never reused: core embeds each in a fresh attempt record.
func (x *Exec) Init(e env.Env, t Thunk, maxOps int) {
	if maxOps < 0 {
		panic("idem: negative maxOps")
	}
	n := firstSegOps
	if s, ok := t.(Sized); ok {
		n = max(s.ExpectedOps(), 1)
	}
	x.thunk, x.maxOps = t, maxOps
	x.log.slots = arenasOf(e).makeSlots(min(n, maxOps))
}

// Execute runs or helps the thunk to completion. It may be called any
// number of times by any number of processes; memory effects apply as
// if the body ran exactly once (Definition 4.1). It panics if this run
// issued a different operation sequence than the first run to finish.
func (x *Exec) Execute(e env.Env) {
	a := arenasOf(e)
	var r *Run
	if a == nil {
		r = new(Run)
	} else {
		r = &a.run
	}
	*r = Run{e: e, x: x, ar: a, seg: &x.log}
	x.thunk.RunThunk(r)
	d := r.digest | 1
	if !x.finished.CompareAndSwap(0, d) && x.finished.Load() != d {
		panic(fmt.Sprintf(
			"idem: non-deterministic thunk: a run of %d operations replayed a different operation sequence than the first run to finish",
			r.next))
	}
}

// Finished reports whether some run of the thunk has completed.
func (x *Exec) Finished() bool { return x.finished.Load() != 0 }

// Run is one process's run of an Exec; it carries the op cursor: the
// index of the next operation and where its slot is in the log. Execute
// passes it to the thunk, and it is valid until the run returns.
type Run struct {
	e    env.Env
	x    *Exec
	ar   *arenas
	next int
	seg  *logSeg // segment holding op next's slot, or the one before it
	off  int     // of that slot within seg; len(seg.slots) when seg is used up
	// digest folds in the kind and cell of every operation issued so
	// far. Its low bit is always 0.
	digest uint64
}

// Env exposes the environment, e.g. for step accounting of private
// work inside the body.
func (r *Run) Env() env.Env { return r.e }

// logged returns the box logged in slot s, or nil if undecided.
func (r *Run) logged(s *atomic.Pointer[box]) *box {
	r.e.Step()
	return s.Load()
}

// slot bounds-checks and claims the next op index, folding the op into
// the run's digest, and returns its log slot.
func (r *Run) slot(k opKind, c *Cell) *atomic.Pointer[box] {
	if r.next >= r.x.maxOps {
		panic(fmt.Sprintf("idem: thunk exceeded maxOps=%d", r.x.maxOps))
	}
	if r.off == len(r.seg.slots) {
		r.nextSeg()
	}
	s := &r.seg.slots[r.off]
	r.next++
	r.off++
	// An FNV-style step over an even word (cell address and kind in
	// disjoint bits, bit 0 clear) keeps the digest even, so digest|1
	// loses nothing.
	w := uint64(uintptr(unsafe.Pointer(c)))<<3 | uint64(k)<<1
	r.digest = (r.digest ^ w) * 0x100000001b3
	return s
}

// nextSeg moves the cursor from a used-up segment to its successor,
// installing one if no run has yet. Every run computes the same size
// for it, so it does not matter whose installation wins.
func (r *Run) nextSeg() {
	seg := r.seg
	r.e.Step()
	next := seg.next.Load()
	if next == nil {
		fresh := r.ar.newSeg(min(2*len(seg.slots), r.x.maxOps-r.next))
		r.e.Step()
		seg.next.CompareAndSwap(nil, fresh)
		r.e.Step()
		next = seg.next.Load()
	}
	r.seg, r.off = next, 0
}

// Read performs an idempotent read of c: all runs of the thunk observe
// the same (first-logged) value.
func (r *Run) Read(c *Cell) uint64 {
	s := r.slot(opRead, c)
	for {
		if b := r.logged(s); b != nil {
			return b.val
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		r.e.Step()
		s.CompareAndSwap(nil, b)
		return r.logged(s).val
	}
}

// Write performs an idempotent write of v to c: the write takes effect
// exactly once no matter how many runs execute it.
func (r *Run) Write(c *Cell, v uint64) {
	s := r.slot(opWrite, c)
	for {
		if r.logged(s) != nil {
			return
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		db := r.ar.newDescBox(s, v, b)
		r.e.Step()
		if c.p.CompareAndSwap(b, db) {
			resolve(r.e, c, db)
			return
		}
	}
}

// CAS performs an idempotent compare-and-swap on c: its success or
// failure is decided once (by the canonical log) and its effect applies
// at most once.
func (r *Run) CAS(c *Cell, old, new uint64) bool {
	s := r.slot(opCAS, c)
	for {
		if b := r.logged(s); b != nil {
			return b != failed
		}
		r.e.Step()
		b := c.p.Load()
		if b.desc != nil {
			resolve(r.e, c, b)
			continue
		}
		if b.val != old {
			// Observed a conflicting value: the op fails, linearized at
			// this load — unless another run already decided otherwise.
			r.e.Step()
			s.CompareAndSwap(nil, failed)
			return r.logged(s) != failed
		}
		db := r.ar.newDescBox(s, new, b)
		r.e.Step()
		if c.p.CompareAndSwap(b, db) {
			resolve(r.e, c, db)
			return r.logged(s) != failed
		}
	}
}

// resolve completes an installed descriptor found in cell c inside box
// db. Any process may (and must, to make progress) resolve descriptors
// it encounters. The descriptor's effect is committed if and only if
// its commit box is the one recorded in its op's log slot; otherwise
// the displaced box is restored, making the installation a no-op.
func resolve(e env.Env, c *Cell, db *box) {
	d := db.desc
	e.Step()
	d.slot.CompareAndSwap(nil, d.commit)
	e.Step()
	won := d.slot.Load() == d.commit
	e.Step()
	if won {
		c.p.CompareAndSwap(db, d.commit)
	} else {
		c.p.CompareAndSwap(db, d.prev)
	}
}
