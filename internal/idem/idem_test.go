package idem

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"wflocks/internal/env"
	"wflocks/internal/sched"
)

func TestCellLoadStore(t *testing.T) {
	e := env.NewNative(0, 1)
	c := NewCell(5)
	if got := c.Load(e); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	c.Store(e, 9)
	if got := c.Load(e); got != 9 {
		t.Fatalf("Load = %d, want 9", got)
	}
}

func TestCellCAS(t *testing.T) {
	e := env.NewNative(0, 1)
	c := NewCell(1)
	if !c.CompareAndSwap(e, 1, 2) {
		t.Fatal("CAS(1,2) on 1 failed")
	}
	if c.CompareAndSwap(e, 1, 3) {
		t.Fatal("CAS(1,3) on 2 succeeded")
	}
	if got := c.Load(e); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

func TestSingleRunSemantics(t *testing.T) {
	// A lone run must behave exactly like direct code.
	e := env.NewNative(0, 1)
	a, b := NewCell(10), NewCell(0)
	x := NewExec(func(r *Run) {
		v := r.Read(a)
		r.Write(b, v*2)
		if !r.CAS(a, 10, 11) {
			t.Error("CAS(10,11) failed on fresh cell")
		}
		if r.CAS(a, 10, 12) {
			t.Error("second CAS from 10 succeeded")
		}
	}, 8)
	x.Execute(e)
	if !x.Finished() {
		t.Fatal("Exec not finished")
	}
	if got := b.Load(e); got != 20 {
		t.Fatalf("b = %d, want 20", got)
	}
	if got := a.Load(e); got != 11 {
		t.Fatalf("a = %d, want 11", got)
	}
}

func TestReexecutionIsNoOp(t *testing.T) {
	// Running the same Exec again must not re-apply effects.
	e := env.NewNative(0, 1)
	ctr := NewCell(0)
	x := NewExec(func(r *Run) {
		v := r.Read(ctr)
		r.Write(ctr, v+1)
	}, 4)
	for i := 0; i < 10; i++ {
		x.Execute(e)
	}
	if got := ctr.Load(e); got != 1 {
		t.Fatalf("counter = %d after 10 executions, want 1", got)
	}
}

// TestAppearsOnceConcurrent is the core idempotence test: h helpers
// concurrently execute a thunk that performs a chain of reads, writes
// and CASes; the final state must equal one sequential run, under many
// random oblivious schedules.
func TestAppearsOnceConcurrent(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		const helpers = 6
		const incs = 10
		ctr := NewCell(0)
		x := NewExec(func(r *Run) {
			for k := 0; k < incs; k++ {
				v := r.Read(ctr)
				r.Write(ctr, v+1)
			}
		}, 2*incs)
		sim := sched.New(sched.NewRandom(helpers, seed), seed)
		for i := 0; i < helpers; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		if got := ctr.Load(e); got != incs {
			t.Fatalf("seed %d: counter = %d, want %d", seed, got, incs)
		}
	}
}

// TestCASChainAppearsOnce: CAS-based increments (the classic lock-free
// counter) must also apply exactly once per op index.
func TestCASChainAppearsOnce(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		const helpers = 5
		ctr := NewCell(100)
		var okCount [3]bool
		x := NewExec(func(r *Run) {
			// Three CASes, each from the canonical previous value: all
			// must succeed exactly once.
			okCount[0] = r.CAS(ctr, 100, 101)
			okCount[1] = r.CAS(ctr, 101, 102)
			okCount[2] = r.CAS(ctr, 102, 103)
		}, 3)
		sim := sched.New(sched.NewRandom(helpers, seed), seed)
		for i := 0; i < helpers; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		if got := ctr.Load(e); got != 103 {
			t.Fatalf("seed %d: counter = %d, want 103", seed, got)
		}
		for i, ok := range okCount {
			if !ok {
				t.Fatalf("seed %d: canonical CAS %d reported failure", seed, i)
			}
		}
	}
}

// TestAllRunsSeeSameResponses: every helper must observe the canonical
// (first-logged) responses, not its own.
func TestAllRunsSeeSameResponses(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		const helpers = 4
		src := NewCell(7)
		seen := make([][]uint64, helpers)
		x := NewExec(func(r *Run) {
			v1 := r.Read(src)
			r.Write(src, v1+1)
			v2 := r.Read(src)
			pid := r.Env().Pid()
			seen[pid] = append(seen[pid], v1, v2)
		}, 4)
		sim := sched.New(sched.NewRandom(helpers, seed), seed)
		for i := 0; i < helpers; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for pid := 1; pid < helpers; pid++ {
			if len(seen[pid]) != len(seen[0]) {
				t.Fatalf("seed %d: helper %d saw %d responses, helper 0 saw %d",
					seed, pid, len(seen[pid]), len(seen[0]))
			}
			for k := range seen[pid] {
				if seen[pid][k] != seen[0][k] {
					t.Fatalf("seed %d: helper %d response %d = %d, helper 0 saw %d",
						seed, pid, k, seen[pid][k], seen[0][k])
				}
			}
		}
	}
}

// TestRacingThunksOnSharedCell: two distinct Execs racing on one cell
// (allowed by the paper, footnote 1) must each apply exactly once and
// the total must reflect both.
func TestRacingThunksOnSharedCell(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		const perThunkHelpers = 3
		ctr := NewCell(0)
		// Two thunks, each CAS-increments the counter by 1, retrying on
		// failure (retry is new ops, bounded by budget).
		mk := func() *Exec {
			return NewExec(func(r *Run) {
				for k := 0; k < 40; k++ {
					v := r.Read(ctr)
					if r.CAS(ctr, v, v+1) {
						return
					}
				}
				t.Error("CAS increment did not complete in budget")
			}, 90)
		}
		x1, x2 := mk(), mk()
		sim := sched.New(sched.NewRandom(2*perThunkHelpers, seed), seed)
		for i := 0; i < perThunkHelpers; i++ {
			sim.Spawn(func(e env.Env) { x1.Execute(e) })
			sim.Spawn(func(e env.Env) { x2.Execute(e) })
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		if got := ctr.Load(e); got != 2 {
			t.Fatalf("seed %d: counter = %d, want 2", seed, got)
		}
	}
}

// TestMaxOpsBudget: a body of exactly maxOps operations runs, and
// operation maxOps+1 panics, wherever the budget falls relative to the
// log's segment boundaries (16, 16+32, ...).
func TestMaxOpsBudget(t *testing.T) {
	for _, maxOps := range []int{1, 15, 16, 17, 48, 49, 300} {
		e := env.NewNative(0, 1)
		ctr := NewCell(0)
		incs := func(n int) Body {
			return func(r *Run) {
				for k := 0; k < n; k++ {
					r.CAS(ctr, uint64(k), uint64(k+1))
				}
			}
		}
		NewExec(incs(maxOps), maxOps).Execute(e)
		if got := ctr.Load(e); got != uint64(maxOps) {
			t.Fatalf("maxOps=%d: %d of %d budgeted operations took effect", maxOps, got, maxOps)
		}
		ctr.Store(e, 0)
		func() {
			defer func() {
				want := fmt.Sprintf("idem: thunk exceeded maxOps=%d", maxOps)
				if got := recover(); got != want {
					t.Fatalf("maxOps=%d: operation %d panicked with %v, want %q", maxOps, maxOps+1, got, want)
				}
			}()
			NewExec(incs(maxOps+1), maxOps).Execute(e)
		}()
		if got := ctr.Load(e); got != uint64(maxOps) {
			t.Fatalf("maxOps=%d: %d operations took effect before the overflow panic", maxOps, got)
		}
	}
}

// TestLongThunkConcurrentHelpers: 8 goroutines run one 200-operation
// thunk at once, so every run crosses the log's segment boundaries at
// 16, 48 and 112 while others install, adopt or are already past them.
// The effects must be those of one run and every run must have adopted
// the same responses. Run under -race this is also the check that a
// segment is published before anyone indexes it.
func TestLongThunkConcurrentHelpers(t *testing.T) {
	const helpers, incs = 8, 100
	for round := 0; round < 20; round++ {
		ctr := NewCell(0)
		seen := make([][]uint64, helpers)
		x := NewExec(func(r *Run) {
			vals := make([]uint64, 0, incs)
			for k := 0; k < incs; k++ {
				v := r.Read(ctr)
				r.Write(ctr, v+1)
				vals = append(vals, v)
			}
			seen[r.Env().Pid()] = vals
		}, 2*incs)
		var wg sync.WaitGroup
		for pid := 0; pid < helpers; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				x.Execute(env.NewNative(pid, uint64(round)))
			}(pid)
		}
		wg.Wait()
		if got := ctr.Load(env.NewNative(99, 1)); got != incs {
			t.Fatalf("round %d: counter = %d, want %d", round, got, incs)
		}
		for pid, vals := range seen {
			for k, v := range vals {
				if v != uint64(k) {
					t.Fatalf("round %d: helper %d adopted %d for read %d, want %d", round, pid, v, k, k)
				}
			}
		}
	}
}

func TestNonDeterministicBodyDetected(t *testing.T) {
	// A body whose op sequence depends on who runs it must be caught by
	// replay validation, in the log's first segment and beyond it.
	for _, at := range []int{0, 20} {
		e := env.NewNative(0, 1)
		a, b := NewCell(0), NewCell(0)
		first := true
		x := NewExec(func(r *Run) {
			for k := 0; k < at; k++ {
				r.Read(a)
			}
			if first {
				first = false
				r.Read(a)
			} else {
				r.Read(b) // diverges: same op index, different cell
			}
		}, at+1)
		x.Execute(e)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on replay diverging at op %d", at)
				}
			}()
			x.Execute(e)
		}()
	}
}

func TestNewExecPanicsOnNegativeMaxOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExec(func(r *Run) {}, -1)
}

func TestWriteToSameCellTwice(t *testing.T) {
	// Consecutive writes to the same cell must both apply, in order.
	for seed := uint64(1); seed <= 30; seed++ {
		c := NewCell(0)
		x := NewExec(func(r *Run) {
			r.Write(c, 1)
			r.Write(c, 2)
			r.Write(c, 3)
		}, 3)
		sim := sched.New(sched.NewRandom(4, seed), seed)
		for i := 0; i < 4; i++ {
			sim.Spawn(func(e env.Env) { x.Execute(e) })
		}
		if err := sim.Run(1_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := env.NewNative(99, 1)
		if got := c.Load(e); got != 3 {
			t.Fatalf("seed %d: c = %d, want 3", seed, got)
		}
	}
}

func TestConstantOverheadPerOp(t *testing.T) {
	// Solo execution: steps per op must be bounded by a small constant
	// (Theorem 4.2 (2)).
	e := env.NewNative(0, 1)
	cells := make([]*Cell, 64)
	for i := range cells {
		cells[i] = NewCell(uint64(i))
	}
	x := NewExec(func(r *Run) {
		for _, c := range cells {
			v := r.Read(c)
			r.Write(c, v+1)
			r.CAS(c, v+1, v+2)
		}
	}, 3*64)
	before := e.Steps()
	x.Execute(e)
	steps := e.Steps() - before
	perOp := float64(steps) / float64(3*64)
	if perOp > 8 {
		t.Fatalf("steps per op = %.1f, want <= 8", perOp)
	}
}

func TestQuickRandomOpSequences(t *testing.T) {
	// Property: for random op scripts, concurrent helped execution ends
	// in the same memory state as one sequential execution.
	type op struct {
		Kind uint8
		Cell uint8
		Val  uint8
	}
	f := func(script []op, seed uint64) bool {
		if len(script) > 50 {
			script = script[:50]
		}
		run := func(concurrent bool) []uint64 {
			cells := make([]*Cell, 4)
			for i := range cells {
				cells[i] = NewCell(uint64(i))
			}
			body := func(r *Run) {
				for _, o := range script {
					c := cells[int(o.Cell)%len(cells)]
					switch o.Kind % 3 {
					case 0:
						r.Read(c)
					case 1:
						r.Write(c, uint64(o.Val))
					case 2:
						v := r.Read(c)
						r.CAS(c, v, uint64(o.Val))
					}
				}
			}
			x := NewExec(body, 2*len(script)+1)
			if concurrent {
				sim := sched.New(sched.NewRandom(3, seed), seed)
				for i := 0; i < 3; i++ {
					sim.Spawn(func(e env.Env) { x.Execute(e) })
				}
				if err := sim.Run(5_000_000); err != nil {
					return nil
				}
			} else {
				x.Execute(env.NewNative(0, seed))
			}
			e := env.NewNative(99, 1)
			out := make([]uint64, len(cells))
			for i, c := range cells {
				out[i] = c.Load(e)
			}
			return out
		}
		seq, conc := run(false), run(true)
		if conc == nil {
			return false
		}
		for i := range seq {
			if seq[i] != conc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
