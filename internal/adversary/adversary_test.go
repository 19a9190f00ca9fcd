package adversary

import (
	"testing"

	"wflocks/internal/core"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/sched"
)

func newSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Kappa: 2, MaxLocks: 2, MaxThunkSteps: 32, DelayC: 4, DelayC1: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// noop is the empty critical section.
var noop = idem.Body(func(r *idem.Run) {})

func TestTrackerPublishClear(t *testing.T) {
	var tr Tracker
	if tr.Current() != nil {
		t.Fatal("fresh tracker not empty")
	}
	sys := newSystem(t)
	l := sys.NewLock()
	a := sys.NewAttempt([]*core.Lock{l}, noop, 0)
	tr.Publish(a.Descriptor())
	if tr.Current() != a.Descriptor() {
		t.Fatal("Publish not visible")
	}
	tr.Clear()
	if tr.Current() != nil {
		t.Fatal("Clear not visible")
	}
}

func TestAwaitStrongRivalFindsAmbushPoint(t *testing.T) {
	// Rival repeatedly attempts; watcher waits for a revealed active
	// rival attempt, which must eventually occur.
	sys := newSystem(t)
	l := sys.NewLock()
	var tr Tracker
	sim := sched.New(sched.RoundRobin{N: 2}, 3)
	found := false
	sim.Spawn(func(e env.Env) {
		for k := 0; k < 30; k++ {
			a := sys.NewAttempt([]*core.Lock{l}, noop, 0)
			tr.Publish(a.Descriptor())
			a.Run(e)
			tr.Clear()
		}
	})
	sim.Spawn(func(e env.Env) {
		found = AwaitStrongRival(e, &tr, 1, 1_000_000)
	})
	if err := sim.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("never observed a revealed active rival")
	}
}

func TestAwaitStrongRivalTimesOut(t *testing.T) {
	var tr Tracker
	e := env.NewNative(0, 1)
	if AwaitStrongRival(e, &tr, 1, 100) {
		t.Fatal("found rival with empty tracker")
	}
	if e.Steps() < 100 {
		t.Fatalf("gave up after %d steps, want >= 100", e.Steps())
	}
}

func TestAwaitPendingSeesPendingWindow(t *testing.T) {
	sys := newSystem(t)
	l := sys.NewLock()
	var tr Tracker
	sim := sched.New(sched.RoundRobin{N: 2}, 5)
	found := false
	sim.Spawn(func(e env.Env) {
		for k := 0; k < 10; k++ {
			a := sys.NewAttempt([]*core.Lock{l}, noop, 0)
			tr.Publish(a.Descriptor())
			a.Run(e)
			tr.Clear()
		}
	})
	sim.Spawn(func(e env.Env) {
		found = AwaitPending(e, &tr, 1_000_000)
	})
	if err := sim.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("never observed a pending attempt")
	}
}

func TestPeriodicStallsShape(t *testing.T) {
	ws := PeriodicStalls(2, 100, 50, 500, 0)
	if len(ws) == 0 {
		t.Fatal("no windows generated")
	}
	for _, w := range ws {
		if w.Pid != 2 || w.To-w.From != 50 || w.From >= 500 {
			t.Fatalf("bad window %+v", w)
		}
	}
	// Windows must not overlap.
	for i := 1; i < len(ws); i++ {
		if ws[i].From < ws[i-1].To {
			t.Fatalf("windows overlap: %+v then %+v", ws[i-1], ws[i])
		}
	}
}

func TestForeverFrom(t *testing.T) {
	ws := ForeverFrom(1, 42, 0)
	if len(ws) != 1 || ws[0].From != 42 || ws[0].To != ^uint64(0) {
		t.Fatalf("bad window %+v", ws[0])
	}
}

func TestAttemptRunTwicePanics(t *testing.T) {
	sys := newSystem(t)
	l := sys.NewLock()
	e := env.NewNative(0, 1)
	a := sys.NewAttempt([]*core.Lock{l}, noop, 0)
	a.Run(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	a.Run(e)
}
