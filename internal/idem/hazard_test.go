package idem

import (
	"errors"
	"runtime"
	"testing"

	"wflocks/internal/env"
	"wflocks/internal/sched"
)

// These tests pin down the specific interleaving hazards the
// descriptor-install protocol exists to defeat (see the package
// comment's construction notes). They complement the randomized
// appears-once tests with adversarially shaped schedules.

// forEachFreeze drives the freeze sweeps of the tests below. pad is how
// many reads of a private cell precede the hazard operation: none, or
// enough to put it in the log's second (ops 16-47) and third
// (48-111) segment, so the sweeps also stop a run in the middle of
// installing or adopting a segment. freezeAt covers every count of its
// own steps after which a run of padded(pad, op) can be frozen while
// still inside the body: a padding read takes at most 4 steps, a
// segment crossing 3, the hazard operation itself under 10.
func forEachFreeze(f func(pad int, freezeAt uint64)) {
	for _, pad := range []int{0, 20, 50} {
		for freezeAt := uint64(1); freezeAt <= uint64(4*pad+20); freezeAt++ {
			f(pad, freezeAt)
		}
	}
}

// padded returns a body that performs pad reads of a fresh cell, then
// op.
func padded(pad int, op func(r *Run)) Body {
	private := NewCell(0)
	return func(r *Run) {
		for k := 0; k < pad; k++ {
			r.Read(private)
		}
		op(r)
	}
}

// TestLateHelperDoesNotReapply: a helper frozen mid-operation must not
// re-apply the operation's effect after the thunk finished and the
// cell moved on — the classic stale-write hazard.
func TestLateHelperDoesNotReapply(t *testing.T) {
	forEachFreeze(func(pad int, freezeAt uint64) {
		c := NewCell(0)
		x := NewExec(padded(pad, func(r *Run) {
			r.CAS(c, 0, 1)
		}), pad+1)
		// Process 0: helper that gets frozen mid-protocol at freezeAt of
		// its own steps, waking only much later.
		// Process 1: completes the thunk normally.
		// Process 2: after the thunk finishes, resets the cell to 0
		// (an ABA the protocol must tolerate), then idles.
		schedule := &sched.Stalling{
			Base: sched.RoundRobin{N: 3},
			// Freeze pid 0 between global steps; round-robin means its
			// k-th own step is global step 3k, approximately.
			Windows: []sched.StallWindow{{Pid: 0, From: 3 * freezeAt, To: 3000, Redirected: 1}},
		}
		sim := sched.New(schedule, 7)
		sim.Spawn(func(e env.Env) { x.Execute(e) })
		sim.Spawn(func(e env.Env) { x.Execute(e) })
		resetDone := false
		sim.Spawn(func(e env.Env) {
			for !x.Finished() {
				e.Step()
			}
			c.Store(e, 0)
			resetDone = true
		})
		err := sim.Run(100_000)
		if err != nil && !errors.Is(err, sched.ErrStepLimit) {
			t.Fatalf("pad %d freeze@%d: %v", pad, freezeAt, err)
		}
		if !resetDone {
			t.Fatalf("pad %d freeze@%d: resetter never ran", pad, freezeAt)
		}
		e := env.NewNative(99, 1)
		if got := c.Load(e); got != 0 {
			t.Fatalf("pad %d freeze@%d: cell = %d after reset — a late helper re-applied the CAS", pad, freezeAt, got)
		}
	})
}

// TestFrozenInstallerResolvedByOthers: if the process that installed an
// operation descriptor freezes before resolving it, any other process
// touching the cell must complete the resolution (non-blocking
// helping), so the cell never stays wedged on a descriptor.
func TestFrozenInstallerResolvedByOthers(t *testing.T) {
	forEachFreeze(func(pad int, freezeAt uint64) {
		c := NewCell(5)
		x := NewExec(padded(pad, func(r *Run) {
			r.Write(c, 9)
		}), pad+1)
		schedule := &sched.Stalling{
			Base:    sched.RoundRobin{N: 2},
			Windows: []sched.StallWindow{{Pid: 0, From: 2 * freezeAt, To: ^uint64(0), Redirected: 1}},
		}
		sim := sched.New(schedule, 3)
		sim.Spawn(func(e env.Env) { x.Execute(e) }) // may freeze mid-install
		var observed uint64
		sim.Spawn(func(e env.Env) {
			// A plain reader: must always get a value, never hang on an
			// unresolved descriptor, and the value must be 5 or 9. It
			// keeps reading for 50 loads after the freeze.
			for k := uint64(0); k < freezeAt+50; k++ {
				observed = c.Load(e)
				if observed != 5 && observed != 9 {
					t.Errorf("pad %d freeze@%d: impossible value %d", pad, freezeAt, observed)
				}
			}
		})
		err := sim.Run(100_000)
		if err != nil && !errors.Is(err, sched.ErrStepLimit) {
			t.Fatalf("pad %d freeze@%d: %v", pad, freezeAt, err)
		}
	})
}

// TestTwoThunksCASSameOld: two distinct thunks CASing from the same
// expected value — exactly one may succeed (the linearizability hazard
// that breaks naive log-then-apply designs).
func TestTwoThunksCASSameOld(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		c := NewCell(5)
		mk := func(newVal uint64, out *uint64) *Exec {
			return NewExec(func(r *Run) {
				if r.CAS(c, 5, newVal) {
					*out = 1
				} else {
					*out = 0
				}
			}, 1)
		}
		var ok1, ok2 uint64
		x1 := mk(7, &ok1)
		x2 := mk(9, &ok2)
		sim := sched.New(sched.NewRandom(2, seed), seed)
		sim.Spawn(func(e env.Env) { x1.Execute(e) })
		sim.Spawn(func(e env.Env) { x2.Execute(e) })
		if err := sim.Run(100_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok1+ok2 != 1 {
			t.Fatalf("seed %d: %d CASes from the same old succeeded, want exactly 1", seed, ok1+ok2)
		}
		e := env.NewNative(99, 1)
		want := uint64(7)
		if ok2 == 1 {
			want = 9
		}
		if got := c.Load(e); got != want {
			t.Fatalf("seed %d: cell = %d, want %d", seed, got, want)
		}
	}
}

// TestHelpersObserveFailedCASConsistently: when the canonical outcome
// of a CAS is failure, every run must report failure, even runs that
// observed the cell holding the expected value at some instant.
func TestHelpersObserveFailedCASConsistently(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		c := NewCell(1)
		results := make([]uint64, 3) // 2 = unset
		for i := range results {
			results[i] = 2
		}
		x := NewExec(func(r *Run) {
			ok := r.CAS(c, 0, 8) // fails: cell holds 1
			pid := r.Env().Pid()
			if ok {
				results[pid] = 1
			} else {
				results[pid] = 0
			}
		}, 1)
		sim := sched.New(sched.NewRandom(3, seed), seed)
		for i := 0; i < 3; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(100_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for pid, r := range results {
			if r != 0 {
				t.Fatalf("seed %d: run on pid %d reported %d, want failure(0)", seed, pid, r)
			}
		}
		e := env.NewNative(99, 1)
		if got := c.Load(e); got != 1 {
			t.Fatalf("seed %d: failed CAS changed the cell to %d", seed, got)
		}
	}
}

// TestInterleavedThunksOnDisjointCells: thunks on disjoint cells cannot
// interfere at all — a sanity floor for the descriptor protocol.
func TestInterleavedThunksOnDisjointCells(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cells := []*Cell{NewCell(0), NewCell(0), NewCell(0), NewCell(0)}
		sim := sched.New(sched.NewRandom(4, seed), seed)
		for i := 0; i < 4; i++ {
			i := i
			x := NewExec(func(r *Run) {
				for k := 0; k < 10; k++ {
					v := r.Read(cells[i])
					r.Write(cells[i], v+1)
				}
			}, 20)
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(1_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		for i, c := range cells {
			if got := c.Load(e); got != 10 {
				t.Fatalf("seed %d: cell %d = %d, want 10", seed, i, got)
			}
		}
	}
}

// freezeUntil is a schedule that, from global step from on, gives pid's
// slots to redirect until *released is set: the frozen process wakes at
// a point the test chooses rather than at a fixed step.
type freezeUntil struct {
	base          sched.Schedule
	pid, redirect int
	from          uint64
	released      *bool
}

func (f freezeUntil) Next(stepIndex uint64) int {
	pid := f.base.Next(stepIndex)
	if pid == f.pid && stepIndex >= f.from && !*f.released {
		return f.redirect
	}
	return pid
}

// TestFrozenInstallerUndoesAfterGC: an installer frozen mid-operation
// wakes only after its operation was decided by another run, the cell
// was reset to the value the operation expects, the collector ran and
// a burst of fresh descriptors was made on other cells, which die and
// are collected with the winner's descriptor. Its late installation
// must be undone, not applied. The log slot names the winning
// installation by its commit box, which the slot keeps alive, so the
// woken installer's own commit box can never have its address. With an
// identity the log does not keep alive (a descriptor's address, say)
// the woken installer's fresh descriptor can land where the collected
// winner's was, match the log, and apply the operation a second time;
// on amd64 this sweep catches that in about one run in five. The sweep
// runs over a succeeding CAS, a Write and a failing CAS, whose
// expected value the reset stores so that a woken run could install.
func TestFrozenInstallerUndoesAfterGC(t *testing.T) {
	for _, tc := range []struct {
		name  string
		op    func(r *Run, c *Cell)
		reset uint64
	}{
		{"CAS", func(r *Run, c *Cell) { r.CAS(c, 0, 1) }, 0},
		{"Write", func(r *Run, c *Cell) { r.Write(c, 1) }, 0},
		{"failing CAS", func(r *Run, c *Cell) { r.CAS(c, 5, 1) }, 5},
	} {
		forEachFreeze(func(pad int, freezeAt uint64) {
			c := NewCell(0)
			x := NewExec(padded(pad, func(r *Run) {
				tc.op(r, c)
			}), pad+1)
			others := NewCells(8, nil)
			released := false
			// Process 0 freezes at about its freezeAt-th step; process 1
			// completes the thunk; process 2 waits for that, resets the
			// cell, collects, makes the burst, collects again and only
			// then releases 0.
			schedule := freezeUntil{base: sched.RoundRobin{N: 3}, pid: 0, redirect: 2,
				from: 3 * freezeAt, released: &released}
			sim := sched.New(schedule, 11)
			sim.Spawn(func(e env.Env) { x.Execute(e) })
			sim.Spawn(func(e env.Env) { x.Execute(e) })
			sim.Spawn(func(e env.Env) {
				for !x.Finished() {
					e.Step()
				}
				c.Store(e, tc.reset)
				runtime.GC()
				for k := range 64 {
					o := others[k%len(others)]
					NewExec(func(r *Run) { r.Write(o, uint64(k)) }, 1).Execute(e)
				}
				runtime.GC()
				released = true
			})
			if err := sim.Run(1_000_000); err != nil {
				t.Fatalf("%s pad %d freeze@%d: %v", tc.name, pad, freezeAt, err)
			}
			e := env.NewNative(99, 1)
			if got := c.Load(e); got != tc.reset {
				t.Fatalf("%s pad %d freeze@%d: cell = %d after reset to %d — the woken installer re-applied the operation",
					tc.name, pad, freezeAt, got, tc.reset)
			}
		})
	}
}
