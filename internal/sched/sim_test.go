package sched

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wflocks/internal/env"
)

func TestRoundRobinCompletes(t *testing.T) {
	s := New(RoundRobin{N: 4}, 1)
	var done [4]bool
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(func(e env.Env) {
			env.StallSteps(e, 10)
			done[i] = true
		})
	}
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("process %d did not finish", i)
		}
	}
	for i := 0; i < 4; i++ {
		// 1 initial grant + 10 stall steps.
		if got := s.ProcSteps(i); got != 11 {
			t.Fatalf("process %d took %d steps, want 11", i, got)
		}
	}
}

func TestStepLimit(t *testing.T) {
	s := New(RoundRobin{N: 1}, 1)
	s.Spawn(func(e env.Env) {
		for { // never finishes
			e.Step()
		}
	})
	err := s.Run(100)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if s.Finished(0) {
		t.Fatal("infinite process reported finished")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint64 {
		s := New(NewRandom(3, 99), 7)
		shared := new(uint64)
		trace := make([]uint64, 0, 64)
		for i := 0; i < 3; i++ {
			s.Spawn(func(e env.Env) {
				for k := 0; k < 20; k++ {
					e.Step()
					*shared += e.Rand() % 100 // serialized by the token
					trace = append(trace, *shared)
				}
			})
		}
		if err := s.Run(10000); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSerializedExecution(t *testing.T) {
	// Only one process may run at a time: a non-atomic counter
	// incremented between steps must never be observed torn.
	s := New(NewRandom(8, 5), 5)
	var inside int32
	for i := 0; i < 8; i++ {
		s.Spawn(func(e env.Env) {
			for k := 0; k < 50; k++ {
				e.Step()
				if atomic.AddInt32(&inside, 1) != 1 {
					t.Error("two processes ran concurrently")
				}
				atomic.AddInt32(&inside, -1)
			}
		})
	}
	if err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
}

func TestProcStepsAccounting(t *testing.T) {
	s := New(RoundRobin{N: 2}, 1)
	s.Spawn(func(e env.Env) { env.StallSteps(e, 5) })
	s.Spawn(func(e env.Env) { env.StallSteps(e, 9) })
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.ProcSteps(0) != 6 || s.ProcSteps(1) != 10 {
		t.Fatalf("steps = %d, %d; want 6, 10", s.ProcSteps(0), s.ProcSteps(1))
	}
	if s.TotalSteps() != 16 {
		t.Fatalf("total steps = %d, want 16", s.TotalSteps())
	}
}

func TestTraceSchedule(t *testing.T) {
	// Process 1 runs entirely before process 0.
	tr := &Trace{Pids: []int{1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0}, N: 2}
	s := New(tr, 1)
	var order []int
	s.Spawn(func(e env.Env) {
		e.Step()
		order = append(order, 0)
	})
	s.Spawn(func(e env.Env) {
		e.Step()
		order = append(order, 1)
	})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestStallingScheduleRedirects(t *testing.T) {
	base := RoundRobin{N: 2}
	st := &Stalling{Base: base, Windows: []StallWindow{{Pid: 0, From: 0, To: 50, Redirected: 1}}}
	s := New(st, 1)
	var first int = -1
	s.Spawn(func(e env.Env) {
		e.Step()
		if first == -1 {
			first = 0
		}
	})
	s.Spawn(func(e env.Env) {
		e.Step()
		if first == -1 {
			first = 1
		}
	})
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("stalled process ran first (first = %d)", first)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	s := New(RoundRobin{N: 2}, 1)
	s.Spawn(func(e env.Env) {
		e.Step()
		panic("boom")
	})
	done := false
	s.Spawn(func(e env.Env) {
		env.StallSteps(e, 10)
		done = true
	})
	err := s.Run(100)
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
	if msg := err.Error(); !strings.Contains(msg, "process 0") || !strings.Contains(msg, "boom") {
		t.Fatalf("error %q does not name the process and the panic value", msg)
	}
	if !done || !s.Finished(1) || s.ProcSteps(1) != 11 {
		t.Fatalf("second process did not run on after the panic (done %v, steps %d)", done, s.ProcSteps(1))
	}
}

func TestBodyGoexitDoesNotHangRun(t *testing.T) {
	// t.Fatal inside a body calls runtime.Goexit; it must end the
	// goroutine that called Run, not strand it waiting for the body.
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s := New(RoundRobin{N: 2}, 1)
		s.Spawn(func(e env.Env) {
			e.Step()
			runtime.Goexit()
		})
		s.Spawn(func(e env.Env) {
			for {
				e.Step()
			}
		})
		_ = s.Run(100)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return 5s after a body called runtime.Goexit")
	}
}

func TestBurntStepsForFinishedProcs(t *testing.T) {
	// One fast process, one slow: round-robin keeps naming the fast
	// one after it finishes; those slots are burnt, not granted.
	s := New(RoundRobin{N: 2}, 1)
	s.Spawn(func(e env.Env) {}) // finishes on its first grant
	s.Spawn(func(e env.Env) { env.StallSteps(e, 20) })
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.ProcSteps(0) != 1 {
		t.Fatalf("fast process took %d steps, want 1", s.ProcSteps(0))
	}
	if s.ProcSteps(1) != 21 {
		t.Fatalf("slow process took %d steps, want 21", s.ProcSteps(1))
	}
}

func TestEnvPid(t *testing.T) {
	s := New(RoundRobin{N: 3}, 1)
	pids := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(func(e env.Env) { pids[i] = e.Pid() })
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, p := range pids {
		if p != i {
			t.Fatalf("process %d saw pid %d", i, p)
		}
	}
}

func TestRandomScheduleCoverage(t *testing.T) {
	r := NewRandom(5, 123)
	seen := make(map[int]bool)
	for i := uint64(0); i < 1000; i++ {
		pid := r.Next(i)
		if pid < 0 || pid >= 5 {
			t.Fatalf("pid %d out of range", pid)
		}
		seen[pid] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random schedule covered %d of 5 processes", len(seen))
	}
}

func TestWeightedScheduleSkews(t *testing.T) {
	w := NewWeighted([]float64{9, 1}, 77)
	count := [2]int{}
	for i := uint64(0); i < 10000; i++ {
		count[w.Next(i)]++
	}
	if count[0] < 8000 {
		t.Fatalf("heavy process got %d of 10000 slots, want ~9000", count[0])
	}
}

func TestBurstySchedule(t *testing.T) {
	b := NewBursty(4, 10, 3)
	// Every run of 10 consecutive slots starting at a multiple of 10
	// names a single process.
	for burst := 0; burst < 100; burst++ {
		first := b.Next(0)
		for i := 1; i < 10; i++ {
			if got := b.Next(0); got != first {
				t.Fatalf("burst %d not contiguous: %d then %d", burst, first, got)
			}
		}
	}
}

func TestSimRandDeterministicPerProc(t *testing.T) {
	draws := func(seed uint64) [2]uint64 {
		s := New(RoundRobin{N: 2}, seed)
		var out [2]uint64
		for i := 0; i < 2; i++ {
			i := i
			s.Spawn(func(e env.Env) { out[i] = e.Rand() })
		}
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draws(42), draws(42)
	if a != b {
		t.Fatalf("same-seed sims drew %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("distinct processes drew identical values")
	}
	if c := draws(43); c == a {
		t.Fatal("different seeds drew identical values")
	}
}
