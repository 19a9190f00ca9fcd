package sched

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"wflocks/internal/env"
)

func TestZeroProcesses(t *testing.T) {
	s := New(RoundRobin{N: 1}, 1)
	if err := s.Run(100); err != nil {
		t.Fatalf("empty simulation errored: %v", err)
	}
	if s.TotalSteps() != 0 {
		t.Fatalf("empty simulation granted %d steps", s.TotalSteps())
	}
}

func TestScheduleNamingAbsentPidIsBurnt(t *testing.T) {
	// A schedule over more pids than registered processes burns the
	// excess slots (the adversary scheduling a process with no work).
	s := New(RoundRobin{N: 3}, 1)
	s.Spawn(func(e env.Env) { env.StallSteps(e, 5) })
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.ProcSteps(0) != 6 {
		t.Fatalf("proc took %d steps, want 6", s.ProcSteps(0))
	}
}

func TestNegativePidBurnt(t *testing.T) {
	tr := &Trace{Pids: []int{-1, -1, 0, 0}, N: 1}
	s := New(tr, 1)
	done := false
	s.Spawn(func(e env.Env) { done = true })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("process never ran despite valid trace entries")
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := New(RoundRobin{N: 1}, 1)
	s.Spawn(func(e env.Env) {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Spawn after Run")
		}
	}()
	s.Spawn(func(e env.Env) {})
}

func TestRunTwicePanics(t *testing.T) {
	s := New(RoundRobin{N: 1}, 1)
	s.Spawn(func(e env.Env) {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
}

func TestNumProcs(t *testing.T) {
	s := New(RoundRobin{N: 2}, 1)
	if s.NumProcs() != 0 {
		t.Fatal("fresh sim has processes")
	}
	s.Spawn(func(e env.Env) {})
	s.Spawn(func(e env.Env) {})
	if s.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d, want 2", s.NumProcs())
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
}

func TestAbortedProcessesDoNotLeak(t *testing.T) {
	// Hitting the step limit with processes mid-stall must tear down
	// cleanly: Run returns, every aborted body unwinds through its
	// deferred calls, and no goroutine outlives Run. The same holds
	// after a normal finish.
	base := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		s := New(RoundRobin{N: 4}, uint64(trial))
		unwound := 0
		for i := 0; i < 4; i++ {
			s.Spawn(func(e env.Env) {
				defer func() { unwound++ }()
				for {
					e.Step()
				}
			})
		}
		if err := s.Run(500); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("err = %v, want ErrStepLimit", err)
		}
		if unwound != 4 {
			t.Fatalf("trial %d: %d of 4 aborted bodies ran their deferred calls", trial, unwound)
		}
		waitGoroutines(t, base, "step-limit teardown")

		s = New(RoundRobin{N: 4}, uint64(trial))
		for i := 0; i < 4; i++ {
			s.Spawn(func(e env.Env) { env.StallSteps(e, 10) })
		}
		if err := s.Run(500); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "normal finish")
	}
}

// waitGoroutines polls briefly for the goroutine count to fall back to
// base: an exiting goroutine runs its deferred calls before the runtime
// stops counting it.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
