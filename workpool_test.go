package wflocks

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolManager builds a manager sized for pool tests: κ as given, L=2
// for the steal path, T covering the pool's worst critical section.
func poolManager(t testing.TB, kappa, batch int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(2),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(1, batch)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorkPoolBasic(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(4), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if wp.Shards() != 4 || wp.Cap() != 32 {
		t.Fatalf("shape = (%d, %d), want (4, 32)", wp.Shards(), wp.Cap())
	}
	const n = 20
	for v := uint64(1); v <= n; v++ {
		if !wp.TryEnqueue(v) {
			t.Fatalf("TryEnqueue(%d) failed below capacity", v)
		}
	}
	if got := wp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Relaxed FIFO: no global order, but every element comes out
	// exactly once.
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		v, ok := wp.TryDequeue()
		if !ok {
			t.Fatalf("TryDequeue %d failed with %d elements left", i, wp.Len())
		}
		if seen[v] {
			t.Fatalf("element %d dequeued twice", v)
		}
		seen[v] = true
	}
	if _, ok := wp.TryDequeue(); ok {
		t.Fatal("TryDequeue on a drained pool succeeded")
	}
	for v := uint64(1); v <= n; v++ {
		if !seen[v] {
			t.Fatalf("element %d lost", v)
		}
	}
	s := wp.Stats()
	if s.Enqueues != n || s.Dequeues != n || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0", s.Enqueues, s.Dequeues, s.Len, n, n)
	}
	// Round-robin spread: with 20 sequential submits over 4 shards,
	// every shard saw exactly 5.
	for si, sh := range s.Shards {
		if sh.Enqueues != n/4 {
			t.Fatalf("shard %d enqueues = %d, want %d (round-robin broken)", si, sh.Enqueues, n/4)
		}
	}
	if s.Balance < 0.999 {
		t.Fatalf("balance = %f, want ~1.0 under round-robin", s.Balance)
	}
}

// TestWorkPoolSteal pins the steal path: all elements are planted in
// shard 0, the consumer's home cursor is pointed at shard 1, and the
// dequeue must come back with a stolen element plus a migrated batch
// rebalanced into the home shard.
func TestWorkPoolSteal(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(2), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	// Plant 6 elements directly in shard 0's ring (white-box), then aim
	// the round-robin cursor at shard 1.
	p := m.Acquire()
	ring0 := &wp.rings[0]
	for v := uint64(1); v <= 6; v++ {
		if _, err := m.Lock(p, wp.locks[:1], wp.opBudget, func(tx *Tx) {
			if !ring0.enqOne(tx, v) {
				t.Errorf("plant %d failed", v)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.Release(p)
	wp.dq.Store(1) // next TryDequeue homes on shard 1
	v, ok := wp.TryDequeue()
	if !ok || v != 1 {
		t.Fatalf("steal dequeue = (%d, %v), want (1, true) (victim FIFO)", v, ok)
	}
	s := wp.Stats()
	// 1 returned + stealBatch migrated.
	if want := uint64(1 + stealBatch); s.Shards[1].Steals != want {
		t.Fatalf("home shard steals = %d, want %d", s.Shards[1].Steals, want)
	}
	if s.Shards[1].Len != stealBatch || s.Shards[0].Len != 6-1-stealBatch {
		t.Fatalf("post-steal occupancy = [%d %d], want [%d %d]",
			s.Shards[0].Len, s.Shards[1].Len, 6-1-stealBatch, stealBatch)
	}
	// The migrated batch preserved victim order: draining home shard 1
	// yields 2..5, then shard 0 holds 6.
	wp.dq.Store(1)
	for want := uint64(2); want <= 5; want++ {
		wp.dq.Store(1)
		v, ok := wp.TryDequeue()
		if !ok || v != want {
			t.Fatalf("migrated drain = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	wp.dq.Store(0)
	if v, ok := wp.TryDequeue(); !ok || v != 6 {
		t.Fatalf("leftover drain = (%d, %v), want (6, true)", v, ok)
	}
	if got := wp.Len(); got != 0 {
		t.Fatalf("Len after full drain = %d, want 0", got)
	}
}

func TestWorkPoolValidation(t *testing.T) {
	// A multi-shard pool needs the two-lock steal path.
	m1, err := New(WithKappa(2), WithMaxLocks(1),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(1, 8)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkPool[uint64](m1); err == nil {
		t.Fatal("multi-shard pool accepted on a MaxLocks(1) manager")
	}
	if _, err := NewWorkPool[uint64](m1, WithPoolShards(1)); err != nil {
		t.Fatalf("single-shard pool rejected: %v", err)
	}
	m2 := poolManager(t, 2, 8)
	if _, err := NewWorkPool[uint64](m2, WithPoolShards(0)); err == nil {
		t.Fatal("WithPoolShards(0) accepted")
	}
	if _, err := NewWorkPool[uint64](m2, WithPoolCapacity(-1)); err == nil {
		t.Fatal("WithPoolCapacity(-1) accepted")
	}
	if _, err := NewWorkPool[uint64](m2, WithPoolBatch(0)); err == nil {
		t.Fatal("WithPoolBatch(0) accepted")
	}
	// Budget shortfall is a construction error, as for Queue.
	small, err := New(WithKappa(2), WithMaxLocks(2),
		WithMaxCriticalSteps(QueueCriticalSteps(1, 1)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkPool[uint64](small); err == nil {
		t.Fatal("pool accepted against a 1-item budget")
	}
}

func TestWorkPoolBatch(t *testing.T) {
	m := poolManager(t, 2, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(2), WithPoolCapacity(16), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	n, err := wp.EnqueueBatch(ctx, vs)
	if err != nil || n != 10 {
		t.Fatalf("EnqueueBatch = (%d, %v), want (10, nil)", n, err)
	}
	got, err := wp.DequeueBatch(ctx, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("DequeueBatch = (%d elements, %v), want 10", len(got), err)
	}
	seen := make(map[uint64]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("element %d dequeued twice", v)
		}
		seen[v] = true
	}
	// Empty-handed cancellation.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := wp.DequeueBatch(cctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled DequeueBatch = %v, want ErrCanceled", err)
	}
	if err := wp.Enqueue(cctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Enqueue = %v, want ErrCanceled", err)
	}
}

func TestWorkPoolConcurrentConservation(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 150
	)
	m := poolManager(t, producers+consumers, 4)
	wp, err := NewWorkPool[uint64](m,
		WithPoolShards(4), WithPoolCapacity(32), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wantSum, gotSum, consumed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				v := uint64(w*perProd + i + 1)
				wantSum.Add(v)
				if err := wp.Enqueue(ctx, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	const total = producers * perProd
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if consumed.Load() >= total {
					return
				}
				if v, ok := wp.TryDequeue(); ok {
					gotSum.Add(v)
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	if gotSum.Load() != wantSum.Load() {
		t.Fatalf("conservation violated: consumed sum %d, produced sum %d", gotSum.Load(), wantSum.Load())
	}
	s := wp.Stats()
	if s.Enqueues != total || s.Dequeues != total || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0",
			s.Enqueues, s.Dequeues, s.Len, total, total)
	}
}

func TestWorkPoolEnqueueKeyed(t *testing.T) {
	m := poolManager(t, 4, 4)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(4), WithPoolCapacity(64), WithPoolBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	// All elements submitted under one key land on that key's shard:
	// with plenty of room, keyed submission never falls through to the
	// probe fallback.
	const key = 2
	for i := 0; i < 8; i++ {
		if !wp.TryEnqueueKeyed(key, uint64(i)) {
			t.Fatalf("TryEnqueueKeyed #%d reported full on an empty pool", i)
		}
	}
	st := wp.Stats()
	for s, sh := range st.Shards {
		want := uint64(0)
		if s == key&3 {
			want = 8
		}
		if sh.Enqueues != want {
			t.Fatalf("shard %d enqueues = %d, want %d", s, sh.Enqueues, want)
		}
	}
	// A full home shard falls back to the next shards rather than
	// rejecting: per-shard capacity is 16, so 16 more keyed submissions
	// overflow into neighbors, and every element is still admitted.
	for i := 0; i < 16; i++ {
		if !wp.TryEnqueueKeyed(key, uint64(100+i)) {
			t.Fatalf("keyed overflow submission %d rejected with free shards", i)
		}
	}
	if got := wp.Len(); got != 24 {
		t.Fatalf("Len = %d, want 24", got)
	}
	// The blocking form delivers under contention and honors ctx.
	if err := wp.EnqueueKeyed(context.Background(), 7, 999); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		if _, ok := wp.TryDequeue(); !ok {
			break
		}
		got++
	}
	if got != 25 {
		t.Fatalf("drained %d elements, want 25", got)
	}
}

func TestWorkPoolEnqueueKeyedCanceled(t *testing.T) {
	m := poolManager(t, 2, 1)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(1), WithPoolCapacity(1), WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if !wp.TryEnqueueKeyed(0, 1) {
		t.Fatal("seed enqueue failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = wp.EnqueueKeyed(ctx, 0, 2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("EnqueueKeyed on a full pool = %v, want ErrCanceled", err)
	}
}
