package wflocks

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newManager(t *testing.T, opts ...Option) *Manager {
	t.Helper()
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSingleProcessTransfer(t *testing.T) {
	m := newManager(t, WithKappa(2), WithMaxLocks(2), WithMaxCriticalSteps(16))
	a, b := m.NewLock(), m.NewLock()
	accA, accB := NewCell(uint64(100)), NewCell(uint64(0))
	p := m.NewProcess()
	ok, err := m.TryLock(p, []*Lock{a, b}, 8, func(tx *Tx) {
		v := Get(tx, accA)
		Put(tx, accA, v-30)
		w := Get(tx, accB)
		Put(tx, accB, w+30)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("uncontended TryLock failed")
	}
	if got := accA.Get(p); got != 70 {
		t.Fatalf("accA = %d, want 70", got)
	}
	if got := accB.Get(p); got != 30 {
		t.Fatalf("accB = %d, want 30", got)
	}
}

func TestCallValidation(t *testing.T) {
	m := newManager(t, WithKappa(2), WithMaxLocks(2), WithMaxCriticalSteps(16))
	a, b, c := m.NewLock(), m.NewLock(), m.NewLock()
	p := m.NewProcess()
	noop := func(*Tx) {}

	if _, err := m.TryLock(p, nil, 4, noop); !errors.Is(err, ErrNoLocks) {
		t.Fatalf("empty lock set: err = %v, want ErrNoLocks", err)
	}
	if _, err := m.TryLock(p, []*Lock{a, b, c}, 4, noop); !errors.Is(err, ErrTooManyLocks) {
		t.Fatalf("oversized lock set: err = %v, want ErrTooManyLocks", err)
	}
	if _, err := m.TryLock(p, []*Lock{a}, 0, noop); !errors.Is(err, ErrMaxOpsExceeded) {
		t.Fatalf("zero maxOps: err = %v, want ErrMaxOpsExceeded", err)
	}
	if _, err := m.TryLock(p, []*Lock{a}, 17, noop); !errors.Is(err, ErrMaxOpsExceeded) {
		t.Fatalf("maxOps over T: err = %v, want ErrMaxOpsExceeded", err)
	}
	if err := m.Do(nil, 4, noop); !errors.Is(err, ErrNoLocks) {
		t.Fatalf("Do with empty lock set: err = %v, want ErrNoLocks", err)
	}
	if _, err := m.Lock(p, []*Lock{a, b, c}, 4, noop); !errors.Is(err, ErrTooManyLocks) {
		t.Fatalf("Lock with oversized set: err = %v, want ErrTooManyLocks", err)
	}
}

func TestFailedTryLockDoesNotRunBody(t *testing.T) {
	m := newManager(t, WithKappa(4), WithMaxLocks(1), WithMaxCriticalSteps(16))
	l := m.NewLock()
	c := NewCell(uint64(0))
	var wg sync.WaitGroup
	var wins, losses, bodyRuns atomicCounter
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.NewProcess()
			for k := 0; k < 200; k++ {
				ok, err := m.TryLock(p, []*Lock{l}, 4, func(tx *Tx) {
					bodyRuns.inc()
					v := Get(tx, c)
					Put(tx, c, v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					wins.inc()
				} else {
					losses.inc()
				}
			}
		}()
	}
	wg.Wait()
	p := m.NewProcess()
	got := c.Get(p)
	if got != wins.get() {
		t.Fatalf("counter = %d, wins = %d: lost or duplicated critical sections", got, wins.get())
	}
	// bodyRuns can exceed wins (helpers re-enter the body; effects are
	// idempotent) but must be zero if wins is zero.
	if wins.get() == 0 && bodyRuns.get() != 0 {
		t.Fatal("body ran despite zero wins")
	}
	s := m.Stats()
	if s.Attempts != 800 || s.Wins != wins.get() {
		t.Fatalf("stats = (%d, %d), want (800, %d)", s.Attempts, s.Wins, wins.get())
	}
}

func TestLockRetriesUntilSuccess(t *testing.T) {
	m := newManager(t, WithKappa(2), WithMaxLocks(2), WithMaxCriticalSteps(16))
	a, b := m.NewLock(), m.NewLock()
	c := NewCell(uint64(0))
	var wg sync.WaitGroup
	const perGoroutine = 50
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.NewProcess()
			for k := 0; k < perGoroutine; k++ {
				attempts, err := m.Lock(p, []*Lock{a, b}, 4, func(tx *Tx) {
					v := Get(tx, c)
					Put(tx, c, v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
				if attempts < 1 {
					t.Error("Lock reported zero attempts")
				}
			}
		}()
	}
	wg.Wait()
	if got := Load(m, c); got != 2*perGoroutine {
		t.Fatalf("counter = %d, want %d", got, 2*perGoroutine)
	}
}

func TestDoPooledPath(t *testing.T) {
	m := newManager(t, WithKappa(4), WithMaxLocks(2), WithMaxCriticalSteps(16))
	a, b := m.NewLock(), m.NewLock()
	c := NewCell(0)
	var wg sync.WaitGroup
	const workers, rounds = 4, 50
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := m.Do([]*Lock{a, b}, 4, func(tx *Tx) {
					Put(tx, c, Get(tx, c)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := Load(m, c); got != workers*rounds {
		t.Fatalf("counter = %d, want %d", got, workers*rounds)
	}
}

func TestUnknownBoundsMode(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2), WithMaxCriticalSteps(16))
	a, b := m.NewLock(), m.NewLock()
	c := NewCell(uint64(0))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				if err := m.Do([]*Lock{a, b}, 4, func(tx *Tx) {
					v := Get(tx, c)
					Put(tx, c, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := Load(m, c); got != 90 {
		t.Fatalf("counter = %d, want 90", got)
	}
}

func TestCASInCriticalSection(t *testing.T) {
	m := newManager(t, WithKappa(2), WithMaxLocks(1), WithMaxCriticalSteps(16))
	l := m.NewLock()
	c := NewCell(uint64(5))
	p := m.NewProcess()
	var okInner, failInner bool
	ok, err := m.TryLock(p, []*Lock{l}, 4, func(tx *Tx) {
		okInner = CompareSwap(tx, c, 5, 6)
		failInner = CompareSwap(tx, c, 5, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("TryLock failed")
	}
	if !okInner || failInner {
		t.Fatalf("CAS results = %v, %v; want true, false", okInner, failInner)
	}
	if got := c.Get(p); got != 6 {
		t.Fatalf("cell = %d, want 6", got)
	}
}

func TestProcessIdentity(t *testing.T) {
	m := newManager(t, WithKappa(2))
	p0, p1 := m.NewProcess(), m.NewProcess()
	if p0.Pid() == p1.Pid() {
		t.Fatal("process ids collide")
	}
	if p0.Steps() != 0 {
		t.Fatal("fresh process has steps")
	}
}

func TestAcquireReleaseReusesHandles(t *testing.T) {
	m := newManager(t, WithKappa(2))
	// Under the race detector sync.Pool randomly drops a fraction of
	// Puts, so assert reuse statistically over many round trips rather
	// than on any single one: distinct pids must stay well below the
	// iteration count.
	const iters = 100
	pids := make(map[int]bool)
	for i := 0; i < iters; i++ {
		p := m.Acquire()
		pids[p.Pid()] = true
		m.Release(p)
	}
	if len(pids) >= iters {
		t.Fatalf("no handle reuse across %d sequential acquire/release round trips", iters)
	}
}

func TestCellGetSet(t *testing.T) {
	m := newManager(t, WithKappa(2))
	p := m.NewProcess()
	c := NewCell(uint64(9))
	if c.Get(p) != 9 {
		t.Fatal("initial value wrong")
	}
	c.Set(p, 11)
	if c.Get(p) != 11 {
		t.Fatal("Set not visible")
	}
	Store(m, c, 12)
	if Load(m, c) != 12 {
		t.Fatal("Store not visible through Load")
	}
}

func TestDelayConstantOverride(t *testing.T) {
	// The fast path would skip both configurations' delays entirely on
	// this uncontended attempt; disable it so the constants are visible.
	m := newManager(t, WithKappa(2), WithDelayConstants(2, 4), WithSeed(42), WithFastPath(false))
	p := m.NewProcess()
	l := m.NewLock()
	before := p.Steps()
	if ok, err := m.TryLock(p, []*Lock{l}, 2, func(tx *Tx) {}); err != nil || !ok {
		t.Fatalf("TryLock failed: ok=%v err=%v", ok, err)
	}
	small := p.Steps() - before

	m2 := newManager(t, WithKappa(2), WithDelayConstants(16, 32), WithSeed(42), WithFastPath(false))
	p2 := m2.NewProcess()
	l2 := m2.NewLock()
	before2 := p2.Steps()
	if ok, err := m2.TryLock(p2, []*Lock{l2}, 2, func(tx *Tx) {}); err != nil || !ok {
		t.Fatalf("TryLock failed: ok=%v err=%v", ok, err)
	}
	large := p2.Steps() - before2
	if large <= small {
		t.Fatalf("larger delay constants did not lengthen the attempt: %d vs %d", small, large)
	}
}

// atomicCounter is a tiny test helper.
type atomicCounter struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomicCounter) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomicCounter) get() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// TestFastPathSkipsDelays pins the uncontended fast path: an attempt
// that observes every requested lock free must skip the delay stalls
// entirely — its step count stays far below the T0 stall alone — and
// must be visible in StatsSnapshot.FastPath. The WithFastPath(false)
// control on the identical configuration pays the full delays.
func TestFastPathSkipsDelays(t *testing.T) {
	// T0 = c·κ²L²T with T = maxCritical × the idem step factor; these
	// constants make it ≥ 100k steps, so the two regimes cannot be
	// confused by protocol noise.
	opts := []Option{WithKappa(4), WithMaxLocks(2), WithDelayConstants(4, 4), WithSeed(7)}

	m := newManager(t, opts...)
	p := m.NewProcess()
	l := m.NewLock()
	before := p.Steps()
	if ok, err := m.TryLock(p, []*Lock{l}, 2, func(tx *Tx) {}); err != nil || !ok {
		t.Fatalf("TryLock failed: ok=%v err=%v", ok, err)
	}
	fast := p.Steps() - before
	if got := m.Stats().FastPath; got != 1 {
		t.Fatalf("FastPath counter = %d, want 1", got)
	}
	if fast > 5000 {
		t.Fatalf("fast-path attempt took %d steps; the delay machinery was not skipped", fast)
	}

	m2 := newManager(t, append(opts, WithFastPath(false))...)
	p2 := m2.NewProcess()
	l2 := m2.NewLock()
	before2 := p2.Steps()
	if ok, err := m2.TryLock(p2, []*Lock{l2}, 2, func(tx *Tx) {}); err != nil || !ok {
		t.Fatalf("TryLock failed: ok=%v err=%v", ok, err)
	}
	slow := p2.Steps() - before2
	if got := m2.Stats().FastPath; got != 0 {
		t.Fatalf("FastPath counter = %d with the fast path disabled", got)
	}
	if slow < 10*fast {
		t.Fatalf("disabled fast path took %d steps vs %d — delays missing from the control", slow, fast)
	}
}

// TestFastPathObservesContention pins the other half of the fast-path
// contract: an attempt that sees another attempt announced on its lock
// must keep its delays (the skip only ever fires on observed-free
// locks, where the fairness race is symmetric).
func TestFastPathObservesContention(t *testing.T) {
	m := newManager(t, WithKappa(4), WithMaxLocks(2), WithDelayConstants(4, 4), WithSeed(7))
	l := m.NewLock()
	stop := make(chan struct{})
	done := make(chan struct{})
	// The holder sleeps inside its critical section so its announcement
	// stays visible long enough for the observer's attempt to overlap
	// it even on one core; the inside flag tells the observer when the
	// section is live. The body touches no cells, so helper
	// re-execution is trivially idempotent (flag stores are identical,
	// helpers just sleep too).
	var inside atomic.Bool
	go func() {
		defer close(done)
		p := m.NewProcess()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = m.Lock(p, []*Lock{l}, 2, func(tx *Tx) {
				inside.Store(true)
				time.Sleep(500 * time.Microsecond)
			})
		}
	}()
	p := m.NewProcess()
	delayed := false
	for i := 0; i < 50 && !delayed; i++ {
		inside.Store(false)
		for !inside.Load() {
			runtime.Gosched()
		}
		before := p.Steps()
		if _, err := m.Lock(p, []*Lock{l}, 2, func(tx *Tx) {}); err != nil {
			t.Fatal(err)
		}
		// Any attempt that paid the ≥100k-step T0 stall saw contention.
		if p.Steps()-before > 50000 {
			delayed = true
		}
	}
	close(stop)
	<-done
	if !delayed {
		t.Fatal("no contended attempt ever paid its delays; the fast path is firing under contention")
	}
}

// TestDoAllocs pins the allocation-free hot path: after arena and pool
// warmup, a steady-state single-word Do averages well under one heap
// allocation per call (the bump arenas allocate one chunk per ~256
// objects, so the amortized average is a fraction; it can never be
// exactly zero).
func TestDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithUnknownBounds(4))
	l := m.NewLock()
	c := NewCell(uint64(0))
	locks := []*Lock{l}
	body := func(tx *Tx) {
		Put(tx, c, Get(tx, c)+1)
	}
	avg := steadyAllocs(func() {
		if err := m.Do(locks, 2, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.5 {
		t.Fatalf("Do averages %.2f allocs/op, want < 0.5", avg)
	}
}

// steadyAllocs returns op's average heap allocations per call after
// arena and pool warm-up.
func steadyAllocs(op func()) float64 {
	for i := 0; i < 512; i++ {
		op()
	}
	return testing.AllocsPerRun(400, op)
}

// steadyBytes returns op's average heap bytes per call over 8192 calls
// after warm-up, arena chunks amortized in.
func steadyBytes(op func()) float64 {
	const n = 8192
	for i := 0; i < 2048; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestMapAllocs pins the map hot paths: a steady-state Get (seqlock
// fast path), Put and Update (operation frames) on single-word codecs
// average well under one allocation per call — at 16 buckets per shard
// and at 1024, where the budget (2061 operations) is far beyond what
// the arena carves from a chunk, so a log sized by the budget
// would cost a heap allocation per attempt. A 2-key Atomic is a frame
// too: its routing, lock set and version cells live in the frame and
// its per-run view in the running process's arena, so it averages at
// most 2 allocations per call and stays within its byte bounds at
// either size; the budget adds nothing.
func TestMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	var atomicAllocs []float64
	for _, shardCap := range []int{16, 1024} {
		m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2),
			WithMaxCriticalSteps(MapAtomicSteps(shardCap, 1, 1, 2)))
		mp, err := NewMap[uint64, uint64](m, WithShardCapacity(shardCap))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 48; k++ {
			if err := mp.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		inc := func(old uint64, _ bool) (uint64, bool) { return old + 1, true }
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"Get", func() { mp.Get(42) }},
			{"Put", func() {
				if err := mp.Put(42, 7); err != nil {
					t.Fatal(err)
				}
			}},
			{"Update", func() {
				if err := mp.Update(42, inc); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			if avg := steadyAllocs(c.op); avg >= 0.5 {
				t.Errorf("%s at %d buckets per shard averages %.2f allocs/op, want < 0.5", c.name, shardCap, avg)
			}
		}
		keys := []uint64{3, 42}
		transfer := func(tx *MapTxn[uint64, uint64]) {
			a, _ := tx.Get(3)
			b, _ := tx.Get(42)
			tx.Put(3, a+1)
			tx.Put(42, b-1)
		}
		atomic := func() {
			if err := mp.Atomic(keys, transfer); err != nil {
				t.Fatal(err)
			}
		}
		atomicAllocs = append(atomicAllocs, steadyAllocs(atomic))
		if got := atomicAllocs[len(atomicAllocs)-1]; got > 2 {
			t.Errorf("2-key Atomic at %d buckets per shard averages %.2f allocs/op, want <= 2", shardCap, got)
		}
		bound := map[int]float64{16: 1700, 1024: 1400}[shardCap]
		if got := steadyBytes(atomic); got > bound {
			t.Errorf("2-key Atomic at %d buckets per shard averages %.0f B/op, want <= %.0f", shardCap, got, bound)
		}
	}
	if small, large := atomicAllocs[0], atomicAllocs[1]; large >= small+0.5 {
		t.Errorf("2-key Atomic averages %.2f allocs/op at 1024 buckets per shard, %.2f at 16: the budget is allocating", large, small)
	}
}

// TestCacheAllocs is that gate for Cache. Reads hold no lock and route
// nothing through cells, so on single-word codecs a Get hit, a Get miss
// and a Contains average well under one allocation per call. Put's
// section is still a closure with its published word: what is pinned
// for it is the budget half — an overwrite on the default cache (128
// entries per shard, budget above the arena's slice cut-off) allocates
// no more than on one with 16 entries per shard.
func TestCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	measure := func(capacity int) (put float64) {
		m := newManager(t, WithUnknownBounds(4), WithMaxLocks(1),
			WithMaxCriticalSteps(CacheCriticalSteps(capacity/8, 1, 1)))
		c, err := NewCache[uint64, uint64](m, WithCapacity(capacity))
		if err != nil {
			t.Fatal(err)
		}
		c.Put(42, 1)
		for name, read := range map[string]func(){
			"Get hit":  func() { c.Get(42) },
			"Get miss": func() { c.Get(7) },
			"Contains": func() { c.Contains(42) },
		} {
			if got := steadyAllocs(read); got >= 0.5 {
				t.Errorf("%s at capacity %d averages %.2f allocs/op, want < 0.5", name, capacity, got)
			}
		}
		return steadyAllocs(func() { c.Put(42, 7) })
	}
	if small, put := measure(128), measure(1024); put >= small+0.5 {
		t.Errorf("default cache averages %.2f allocs per Put, %.2f at 16 entries per shard: the budget is allocating", put, small)
	}
	// Multi-word codecs: the probe compares encodings and the value is
	// decoded through the process's scratch words, so a hit allocates
	// the string it returns and nothing else — on Map's lock-free Get too.
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(1), WithMaxCriticalSteps(CacheCriticalSteps(16, 3, 5)))
	c, err := NewCacheOf[string, string](m, StringCodec(16), StringCodec(32), WithCapacity(128))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMapOf[string, string](m, StringCodec(16), StringCodec(32), WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k000000042", "0123456789abcdef0123456789abcdef")
	if err := mp.Put("k000000042", "0123456789abcdef0123456789abcdef"); err != nil {
		t.Fatal(err)
	}
	if got := steadyAllocs(func() { c.Get("k000000042") }); got >= 1.5 {
		t.Errorf("Cache[string,string] Get hit averages %.2f allocs/op, want 1", got)
	}
	if got := steadyAllocs(func() { mp.Get("k000000042") }); got >= 1.5 {
		t.Errorf("Map[string,string] Get hit averages %.2f allocs/op, want 1", got)
	}
}

// TestWorkPoolAllocs pins the pool's hot pair: an enqueue and a
// dequeue are frames whose scalar results ride atomic words, so the
// pair averages well under one allocation and at most 1300 B.
func TestWorkPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2), WithMaxCriticalSteps(WorkPoolCriticalSteps(1, 8)))
	wp, err := NewWorkPool[uint64](m)
	if err != nil {
		t.Fatal(err)
	}
	pair := func() {
		if !wp.TryEnqueue(7) {
			t.Fatal("enqueue failed")
		}
		if _, ok := wp.TryDequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	}
	if got := steadyAllocs(pair); got >= 0.5 {
		t.Errorf("enqueue+dequeue averages %.2f allocs/op, want < 0.5", got)
	}
	if got := steadyBytes(pair); got > 1300 {
		t.Errorf("enqueue+dequeue averages %.0f B/op, want <= 1300", got)
	}
}

// TestTryDequeueEmptyAllocs: an empty pass is a handful of loads — no
// result cells, no closure, no section.
func TestTryDequeueEmptyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2), WithMaxCriticalSteps(WorkPoolCriticalSteps(1, 8)))
	wp, err := NewWorkPool[uint64](m)
	if err != nil {
		t.Fatal(err)
	}
	if got := steadyAllocs(func() { wp.TryDequeue() }); got != 0 {
		t.Errorf("TryDequeue on an empty pool averages %.2f allocs/op, want 0", got)
	}
}

// TestAttemptAllocsBytes pins what one uncontended attempt allocates:
// a 1-lock Do of 2 reads and 2 writes draws one attempt record (the
// descriptor with its exec), its 4 log slots, its lock set, the lock's
// active-set snapshots, a Tx handle and each write's descriptor and
// commit boxes, all from arena chunks that fill their size class, so
// it stays within 500 B.
func TestAttemptAllocsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithKappa(4), WithMaxLocks(4), WithMaxCriticalSteps(64))
	locks := []*Lock{m.NewLock()}
	a, b := NewCell(uint64(0)), NewCell(uint64(0))
	body := func(tx *Tx) {
		Put(tx, a, Get(tx, a)+1)
		Put(tx, b, Get(tx, b)+1)
	}
	for i := 0; i < 1024; i++ {
		if err := m.Do(locks, 4, body); err != nil {
			t.Fatal(err)
		}
	}
	const ops = 8192
	attempts0 := m.Stats().Attempts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := m.Do(locks, 4, body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perAttempt := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Stats().Attempts-attempts0)
	t.Logf("%.1f B per attempt", perAttempt)
	if perAttempt > 500 {
		t.Fatalf("an uncontended 1-lock, 4-op Do allocates %.0f B per attempt, want <= 500", perAttempt)
	}
}

// TestDoAllocsBytesIndependentOfBudget is the bytes half of the gate
// (the 'Allocs' in the name keeps it under the CI allocation step): the
// budget bounds a section's steps, not its memory, so the same 4-op Do
// costs the same bytes whether it is allowed 64 operations or 4096.
func TestDoAllocsBytesIndependentOfBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	bytesPerOp := func(maxOps int) float64 {
		m := newManager(t, WithUnknownBounds(4), WithMaxCriticalSteps(maxOps))
		locks := []*Lock{m.NewLock()}
		a, b := NewCell(uint64(0)), NewCell(uint64(0))
		body := func(tx *Tx) {
			Put(tx, a, Get(tx, a)+1)
			Put(tx, b, Get(tx, b)+1)
		}
		do := func() {
			if err := m.Do(locks, maxOps, body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 512; i++ {
			do()
		}
		const ops = 4096
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	small, large := bytesPerOp(64), bytesPerOp(4096)
	if large > 1.1*small {
		t.Fatalf("a 4-op Do allocates %.0f B/op with maxOps=4096, %.0f with maxOps=64; want within 10%%", large, small)
	}
}
