package wflocks

import (
	"sync"
	"testing"
)

// TestStatsSnapshotConsistency checks the counter invariants on a
// single-lock-per-attempt workload, where the per-lock sums must match
// the manager totals exactly (an attempt holding k locks counts k times
// across per-lock counters but once manager-wide).
func TestStatsSnapshotConsistency(t *testing.T) {
	const workers = 4
	const rounds = 100
	const numLocks = 3
	m := newManager(t, WithKappa(workers), WithMaxLocks(1), WithMaxCriticalSteps(8))
	locks := make([]*Lock, numLocks)
	cells := make([]*Cell[uint64], numLocks)
	for i := range locks {
		locks[i] = m.NewLock()
		cells[i] = NewCell(uint64(0))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (w + k) % numLocks
				if err := m.Do([]*Lock{locks[i]}, 2, func(tx *Tx) {
					Put(tx, cells[i], Get(tx, cells[i])+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s := m.Stats()
	if s.Wins != workers*rounds {
		t.Fatalf("wins = %d, want %d (Do retries until success)", s.Wins, workers*rounds)
	}
	if s.Wins > s.Attempts {
		t.Fatalf("wins %d > attempts %d", s.Wins, s.Attempts)
	}
	if s.SuccessRate() <= 0 || s.SuccessRate() > 1 {
		t.Fatalf("success rate %v out of range", s.SuccessRate())
	}
	if len(s.Locks) != numLocks {
		t.Fatalf("per-lock entries = %d, want %d", len(s.Locks), numLocks)
	}
	var sumAttempts, sumWins uint64
	for _, ls := range s.Locks {
		if ls.Wins > ls.Attempts {
			t.Fatalf("lock %d: wins %d > attempts %d", ls.ID, ls.Wins, ls.Attempts)
		}
		sumAttempts += ls.Attempts
		sumWins += ls.Wins
	}
	// Single-lock attempts: per-lock sums must equal manager totals.
	if sumAttempts != s.Attempts {
		t.Fatalf("per-lock attempts sum %d != manager attempts %d", sumAttempts, s.Attempts)
	}
	if sumWins != s.Wins {
		t.Fatalf("per-lock wins sum %d != manager wins %d", sumWins, s.Wins)
	}
	// Work landed on every lock, so every per-lock counter must be live.
	for _, ls := range s.Locks {
		if ls.Attempts == 0 {
			t.Fatalf("lock %d saw no attempts", ls.ID)
		}
	}
}

// TestStatsMultiLockAccounting pins down the documented k-fold rule:
// an attempt over k locks adds k to the per-lock sums and 1 to the
// manager totals.
func TestStatsMultiLockAccounting(t *testing.T) {
	m := newManager(t, WithKappa(2), WithMaxLocks(2), WithMaxCriticalSteps(8))
	a, b := m.NewLock(), m.NewLock()
	c := NewCell(uint64(0))
	p := m.NewProcess()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := m.Lock(p, []*Lock{a, b}, 2, func(tx *Tx) {
			Put(tx, c, Get(tx, c)+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Wins != n {
		t.Fatalf("wins = %d, want %d", s.Wins, n)
	}
	var sumWins uint64
	for _, ls := range s.Locks {
		sumWins += ls.Wins
	}
	if sumWins != 2*s.Wins {
		t.Fatalf("per-lock wins sum %d, want %d (2 locks per attempt)", sumWins, 2*s.Wins)
	}
}

// TestStatsHelpCounters drives enough contention that helping occurs,
// then checks the help counters surfaced through the snapshot.
func TestStatsHelpCounters(t *testing.T) {
	const workers = 4
	m := newManager(t, WithKappa(workers), WithMaxLocks(1), WithMaxCriticalSteps(8))
	l := m.NewLock()
	c := NewCell(uint64(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				p := m.Acquire()
				_, err := m.TryLock(p, []*Lock{l}, 2, func(tx *Tx) {
					Put(tx, c, Get(tx, c)+1)
				})
				m.Release(p)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if s.Attempts != workers*200 {
		t.Fatalf("attempts = %d, want %d", s.Attempts, workers*200)
	}
	if got := Load(m, c); got != s.Wins {
		t.Fatalf("counter = %d, wins = %d", got, s.Wins)
	}
	// Helps is workload-dependent; under this much contention the
	// helping phase all but certainly fired, but zero is still legal, so
	// only check the snapshot's internal consistency.
	var sumHelps, sumCompletions uint64
	for _, ls := range s.Locks {
		sumHelps += ls.Helps
		sumCompletions += ls.HelpCompletions
	}
	if sumHelps != s.Helps || sumCompletions != s.HelpCompletions {
		t.Fatalf("per-lock helps/completions sums %d/%d != manager's %d/%d",
			sumHelps, sumCompletions, s.Helps, s.HelpCompletions)
	}
}

// TestStatsConcurrentWithNewLock interleaves lock creation with Stats
// snapshots and live traffic: the lock registry is append-only under
// m.mu while Stats iterates a copied slice header, and the race
// detector checks the two never conflict. Runs in -short.
func TestStatsConcurrentWithNewLock(t *testing.T) {
	const (
		creators     = 3
		locksPerGoro = 25
		snapshots    = 100
	)
	m := newManager(t, WithKappa(8), WithMaxLocks(1), WithMaxCriticalSteps(8),
		WithDelayConstants(1, 1))
	seed := m.NewLock()
	// One counter per goroutine: the goroutines hold different locks, so
	// a cell they shared would not be protected by any of them.
	counters := make([]*Cell[uint64], creators+1)
	for i := range counters {
		counters[i] = NewCell(uint64(0))
	}

	var wg sync.WaitGroup
	// Creators grow the lock registry...
	for g := 0; g < creators; g++ {
		wg.Add(1)
		c := counters[g]
		go func() {
			defer wg.Done()
			for i := 0; i < locksPerGoro; i++ {
				l := m.NewLock()
				// ...and immediately use the fresh lock once, so Stats
				// can observe counters mid-flight.
				if err := m.Do([]*Lock{l}, 2, func(tx *Tx) {
					Put(tx, c, Get(tx, c)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// ...one goroutine keeps traffic on the seed lock...
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := counters[creators]
		for i := 0; i < 50; i++ {
			if err := m.Do([]*Lock{seed}, 2, func(tx *Tx) {
				Put(tx, c, Get(tx, c)+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// ...while snapshots run concurrently. Each snapshot must be
	// internally sane even when taken mid-creation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < snapshots; i++ {
			s := m.Stats()
			if len(s.Locks) < prev {
				t.Errorf("lock registry shrank: %d -> %d", prev, len(s.Locks))
				return
			}
			prev = len(s.Locks)
			for _, ls := range s.Locks {
				if ls.Wins > ls.Attempts {
					t.Errorf("lock %d: wins %d > attempts %d", ls.ID, ls.Wins, ls.Attempts)
					return
				}
			}
		}
	}()
	wg.Wait()

	s := m.Stats()
	want := 1 + creators*locksPerGoro
	if len(s.Locks) != want {
		t.Fatalf("registry has %d locks, want %d", len(s.Locks), want)
	}
	var got uint64
	for _, c := range counters {
		got += Load(m, c)
	}
	if got != s.Wins {
		t.Fatalf("counters sum to %d, wins = %d", got, s.Wins)
	}
}
