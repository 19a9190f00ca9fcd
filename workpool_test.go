package wflocks

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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

// waitFor polls cond until it holds, failing the test with what() after
// bound: the tests below assert on events (the Parked gauge, delivery
// counts), never on a sleep having been long enough.
func waitFor(t *testing.T, bound time.Duration, cond func() bool, what func() string) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestWorkPoolParkNoLostWakeup: more consumers than producers, all in
// the blocking Dequeue, so most of them are parked most of the time.
// Producers submit short bursts through every enqueue form with random
// pauses; after each burst everything submitted so far must be
// delivered within a bound — a consumer left parked while an element
// waits would hold the round up forever, since nothing else is coming —
// and at the end every element was delivered exactly once.
func TestWorkPoolParkNoLostWakeup(t *testing.T) {
	const (
		producers = 2
		consumers = 5
	)
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	m := poolManager(t, producers+consumers+1, 2)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(4), WithPoolCapacity(64), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const maxPerRound = producers * 3
	seen := make([]atomic.Int32, rounds*maxPerRound+1)
	var delivered atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for {
				var vs []uint64
				if c == 0 {
					// One consumer drains in batches: the same park,
					// reached through DequeueBatch.
					got, err := wp.DequeueBatch(ctx, 2)
					if err != nil {
						return
					}
					vs = got
				} else {
					v, err := wp.Dequeue(ctx)
					if err != nil {
						return
					}
					vs = []uint64{v}
				}
				for _, v := range vs {
					seen[v].Add(1)
					delivered.Add(1)
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}(c)
	}

	rng := rand.New(rand.NewSource(99))
	next, sent := uint64(1), int64(0)
	for r := 0; r < rounds; r++ {
		// Half the rounds start from "every consumer asleep", the rest
		// from whatever mix of spinning and parked the last round left.
		if r%2 == 0 {
			waitFor(t, 10*time.Second, func() bool { return wp.Stats().Parked == consumers }, func() string {
				return fmt.Sprintf("round %d: %d of %d consumers parked on an empty pool", r, wp.Stats().Parked, consumers)
			})
		}
		var pwg sync.WaitGroup
		for p := 0; p < producers; p++ {
			k := 1 + rng.Intn(3)
			vs := make([]uint64, k)
			for i := range vs {
				vs[i] = next
				next++
			}
			sent += int64(k)
			form, pause := rng.Intn(4), time.Duration(rng.Intn(300))*time.Microsecond
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				time.Sleep(pause)
				switch form {
				case 0:
					if n, err := wp.EnqueueBatch(ctx, vs); err != nil || n != len(vs) {
						t.Errorf("EnqueueBatch = %d, %v", n, err)
					}
				case 1:
					for _, v := range vs {
						if !wp.TryEnqueue(v) {
							t.Errorf("TryEnqueue(%d) found the pool full", v)
						}
					}
				case 2:
					for _, v := range vs {
						if err := wp.EnqueueKeyed(ctx, v, v); err != nil {
							t.Error(err)
						}
					}
				default:
					for _, v := range vs {
						if err := wp.Enqueue(ctx, v); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		pwg.Wait()
		waitFor(t, 10*time.Second, func() bool { return delivered.Load() == sent }, func() string {
			return fmt.Sprintf("round %d: %d of %d delivered with Len=%d and %d consumers parked: a wake-up was lost",
				r, delivered.Load(), sent, wp.Len(), wp.Stats().Parked)
		})
	}
	cancel()
	cwg.Wait()
	for v := uint64(1); v < next; v++ {
		if n := seen[v].Load(); n != 1 {
			t.Fatalf("element %d delivered %d times", v, n)
		}
	}
	if s := wp.Stats(); s.Parked != 0 || s.Len != 0 || s.Enqueues != uint64(sent) || s.Dequeues != uint64(sent) {
		t.Fatalf("quiescent stats = parked %d len %d enq %d deq %d, want 0/0/%d/%d",
			s.Parked, s.Len, s.Enqueues, s.Dequeues, sent, sent)
	}
}

// TestTryDequeueEmptyMakesNoAttempt: an empty pass changes nothing, so
// TryDequeue on an empty pool — home shard and victim scan both read
// zero — and on an empty Queue takes no lock at all, and the
// observation is still counted as one EmptyRejects.
func TestTryDequeueEmptyMakesNoAttempt(t *testing.T) {
	m := poolManager(t, 2, 2)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(4), WithPoolCapacity(16), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	// Not born empty only: drained rings read zero as well.
	if !wp.TryEnqueue(1) || !q.TryEnqueue(1) {
		t.Fatal("TryEnqueue failed on an empty ring")
	}
	for _, deq := range []func() (uint64, bool){wp.TryDequeue, q.TryDequeue} {
		for {
			if _, ok := deq(); ok {
				break
			}
		}
	}
	before, poolBase, queueBase := m.Stats().Attempts, wp.Stats().EmptyRejects, q.Stats().EmptyRejects
	if _, ok := wp.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on an empty pool")
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on an empty queue")
	}
	if got := m.Stats().Attempts - before; got != 0 {
		t.Fatalf("two empty TryDequeues made %d lock attempts, want 0", got)
	}
	if dp, dq := wp.Stats().EmptyRejects-poolBase, q.Stats().EmptyRejects-queueBase; dp != 1 || dq != 1 {
		t.Fatalf("EmptyRejects moved by %d (pool) and %d (queue), want 1 and 1", dp, dq)
	}
}

// blockFirstCodec is a one-word codec (not a ScalarCodec, so every cell
// write inside a critical section calls Encode) whose first Encode
// blocks until gate closes: a producer stalled inside its enqueue body.
type blockFirstCodec struct {
	first   *atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (c blockFirstCodec) Words() int { return 1 }
func (c blockFirstCodec) Encode(v uint64, dst []uint64) {
	if c.first.CompareAndSwap(false, true) {
		close(c.entered)
		<-c.gate
	}
	dst[0] = v
}
func (c blockFirstCodec) Decode(src []uint64) uint64 { return src[0] }

// TestWorkPoolParkedStalledProducer: with every consumer parked, a
// producer stalls inside its enqueue section. Nobody is attempting, so
// nobody helps it — until a second producer arrives on the same shard
// lock, completes the stalled section on its way to its own, and wakes a
// consumer. Both elements must then be consumed (the first consumer
// hands the wake on) while the stalled producer is still stalled.
func TestWorkPoolParkedStalledProducer(t *testing.T) {
	m := poolManager(t, 4, 1)
	vc := blockFirstCodec{first: new(atomic.Bool), entered: make(chan struct{}), gate: make(chan struct{})}
	wp, err := NewWorkPoolOf[uint64](m, vc, WithPoolShards(1), WithPoolCapacity(8), WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	got := make(chan uint64, 2)
	for c := 0; c < 2; c++ {
		go func() {
			v, err := wp.Dequeue(ctx)
			if err != nil {
				t.Error(err)
			}
			got <- v
		}()
	}
	waitFor(t, 10*time.Second, func() bool { return wp.Stats().Parked == 2 }, func() string {
		return fmt.Sprintf("%d of 2 consumers parked", wp.Stats().Parked)
	})

	stalled := make(chan error, 1)
	go func() { stalled <- wp.Enqueue(ctx, 1) }()
	<-vc.entered
	if err := wp.Enqueue(ctx, 2); err != nil {
		t.Fatalf("second producer behind a stalled one: %v", err)
	}
	sum := uint64(0)
	for i := 0; i < 2; i++ {
		select {
		case v := <-got:
			sum += v
		case err := <-stalled:
			t.Fatalf("stalled producer returned (%v) before its gate opened", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 elements consumed with the producer still stalled (Len=%d, parked=%d)",
				i, wp.Len(), wp.Stats().Parked)
		}
	}
	if sum != 3 {
		t.Fatalf("consumed elements sum to %d, want 1+2", sum)
	}
	close(vc.gate)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled producer's Enqueue = %v", err)
	}
	if s := wp.Stats(); s.Enqueues != 2 || s.Dequeues != 2 || s.Len != 0 {
		t.Fatalf("stats = %d enq, %d deq, len %d; want 2/2/0", s.Enqueues, s.Dequeues, s.Len)
	}
}

// TestWorkPoolParkedCancel: a consumer parked on an empty pool returns
// promptly once its context is canceled, with the error the retry loop
// has always returned — ErrCanceled and ctx's error wrapped around the
// structure, the state and the failed pass count, which for a consumer
// that parked once and was never woken is exactly parkAfter.
func TestWorkPoolParkedCancel(t *testing.T) {
	m := poolManager(t, 2, 2)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(2), WithPoolCapacity(8), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		parked func() int
		wait   func(context.Context) error
	}{
		{"pool/Dequeue", func() int { return wp.Stats().Parked },
			func(ctx context.Context) error { _, err := wp.Dequeue(ctx); return err }},
		{"pool/DequeueBatch", func() int { return wp.Stats().Parked },
			func(ctx context.Context) error { _, err := wp.DequeueBatch(ctx, 3); return err }},
		{"queue/Dequeue", func() int { return q.pool.Stats().Parked },
			func(ctx context.Context) error { _, err := q.Dequeue(ctx); return err }},
		{"queue/DequeueBatch", func() int { return q.pool.Stats().Parked },
			func(ctx context.Context) error { _, err := q.DequeueBatch(ctx, 3); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.wait(ctx) }()
			waitFor(t, 10*time.Second, func() bool { return tc.parked() == 1 }, func() string {
				return "consumer never parked on the empty structure"
			})
			t0 := time.Now()
			cancel()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("parked consumer ignored cancel()")
			}
			if d := time.Since(t0); d > 500*time.Millisecond {
				t.Errorf("returned %v after cancel(), want a few ms", d)
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap ErrCanceled and context.Canceled", err)
			}
			noun, _, _ := strings.Cut(tc.name, "/")
			if want := fmt.Sprintf("%s empty after %d attempts", noun, parkAfter); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err, want)
			}
			if n := tc.parked(); n != 0 {
				t.Fatalf("%d consumers still registered as parked after return", n)
			}
		})
	}
}

// TestWorkPoolParkHandoffRace aims enqueues at the instant a consumer
// parks: one consumer, one producer, and each round the producer waits a
// random few microseconds after the previous delivery — the time the
// consumer needs for its passes before parking — so that over many
// rounds some enqueue completes between the consumer's last look at the
// rings and its block. The register-then-re-check order in park is what
// makes that harmless; every round must deliver within a bound.
func TestWorkPoolParkHandoffRace(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	m := poolManager(t, 2, 1)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(2), WithPoolCapacity(8), WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan uint64)
	go func() {
		for {
			v, err := wp.Dequeue(ctx)
			if err != nil {
				return
			}
			got <- v
		}
	}()
	rng := rand.New(rand.NewSource(7))
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for r := 1; r <= rounds; r++ {
		for t0, d := time.Now(), time.Duration(rng.Intn(60_000)); time.Since(t0) < d; {
		}
		if !wp.TryEnqueue(uint64(r)) {
			t.Fatalf("round %d: pool full", r)
		}
		timeout.Reset(10 * time.Second)
		select {
		case v := <-got:
			if v != uint64(r) {
				t.Fatalf("round %d delivered %d", r, v)
			}
		case <-timeout.C:
			t.Fatalf("round %d: element undelivered with Len=%d and %d consumers parked: a wake-up was lost",
				r, wp.Len(), wp.Stats().Parked)
		}
	}
}

// TestWorkPoolParkCancelHandsWakeOn parks two consumers on different
// contexts — a long-lived worker and a caller with a per-call deadline —
// and cancels the second one's context at the instant an element is
// enqueued. The cancelled consumer may be the one the single wake token
// reaches; it leaves with ErrCanceled without looking at the rings, so
// it has to hand the wake on, or the element waits behind a worker that
// stays parked until some later enqueue. Every round must deliver
// within a bound, to either consumer.
func TestWorkPoolParkCancelHandsWakeOn(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 400
	}
	m := poolManager(t, 3, 1)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(2), WithPoolCapacity(8), WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	bg, stop := context.WithCancel(context.Background())
	defer stop()
	got := make(chan uint64, 1)
	go func() {
		for {
			v, err := wp.Dequeue(bg)
			if err != nil {
				return
			}
			got <- v
		}
	}()
	type result struct {
		v   uint64
		err error
	}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for r := 1; r <= rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		short := make(chan result, 1)
		go func() {
			v, err := wp.Dequeue(ctx)
			short <- result{v, err}
		}()
		waitFor(t, 10*time.Second, func() bool { return wp.Stats().Parked == 2 }, func() string {
			return fmt.Sprintf("round %d: %d of 2 consumers parked", r, wp.Stats().Parked)
		})
		go cancel()
		if !wp.TryEnqueue(uint64(r)) {
			t.Fatalf("round %d: pool full", r)
		}
		res := <-short
		delivered := res.err == nil
		if !delivered && !errors.Is(res.err, ErrCanceled) {
			t.Fatalf("round %d: %v", r, res.err)
		}
		if !delivered {
			timeout.Reset(10 * time.Second)
			select {
			case res.v = <-got:
			case <-timeout.C:
				t.Fatalf("round %d: element stranded with Len=%d and %d consumers parked: the cancelled consumer kept the wake",
					r, wp.Len(), wp.Stats().Parked)
			}
		}
		if res.v != uint64(r) {
			t.Fatalf("round %d delivered %d", r, res.v)
		}
	}
}

// TestSettledCountersUnderHelping pins that the counters owners settle
// after their sections stay exact when helpers run those sections. Four
// goroutines drive a two-shard pool, a one-shard pool and a one-shard
// log whose element codec is multi-word and stalls inside sections, so
// holders stall mid-section, competitors finish their bodies, and
// dequeued and delivered elements come back through result cells. At
// quiescence every counter a caller can tally equals the callers' sum:
// enqueues and dequeues; full rejects (none on the two-shard pool,
// which has room for everything; on the one-shard structures a failed
// call is exactly one rejected pass); appends and each cursor's reads. Steals cannot be tallied by callers (a dequeue does
// not say whether it stole), so the two-shard pool's are checked by
// conservation: they happened, and every element is accounted for.
func TestSettledCountersUnderHelping(t *testing.T) {
	const (
		workers = 4
		rounds  = 150
	)
	var armed atomic.Bool
	vc := stallingPairCodec(&armed, 8, 300*time.Microsecond)
	m := newManager(t, WithKappa(workers+1), WithMaxLocks(2), WithDelayConstants(1, 1),
		WithMaxCriticalSteps(max(WorkPoolCriticalSteps(2, 2), LogCriticalSteps(2, 1, workers, 4))))
	// Room for every element: no shard ever fills, so no pass is rejected.
	pool, err := NewWorkPoolOf[widePair](m, vc, WithPoolShards(2), WithPoolCapacity(2*workers*rounds), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewWorkPoolOf[widePair](m, vc, WithPoolShards(1), WithPoolCapacity(4), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogOf[widePair](m, vc, WithLogShards(1), WithLogCapacity(8), WithLogSegment(4),
		WithLogConsumers(workers), WithLogBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	cursors := make([]*Cursor[widePair], workers)
	for i := range cursors {
		if cursors[i], err = lg.NewCursor(); err != nil {
			t.Fatal(err)
		}
	}
	type tally struct{ enq, deq, oneEnq, oneDeq, oneFull, appends, logFull, reads uint64 }
	tallies := make([]tally, workers)
	armed.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			for i := 0; i < rounds; i++ {
				v := newWidePair(uint64(w*rounds + i))
				if pool.TryEnqueue(v) {
					tl.enq++
				}
				if got, ok := pool.TryDequeue(); ok {
					if !got.sane() {
						t.Errorf("pool dequeued %+v", got)
					}
					tl.deq++
				}
				if one.TryEnqueue(v) {
					tl.oneEnq++
				} else {
					tl.oneFull++
				}
				if i%2 == 0 {
					if _, ok := one.TryDequeue(); ok {
						tl.oneDeq++
					}
				}
				if lg.TryAppend(v) {
					tl.appends++
				} else {
					tl.logFull++
				}
				for {
					got, ok := cursors[w].TryNext()
					if !ok {
						break
					}
					if !got.sane() {
						t.Errorf("cursor read %+v", got)
					}
					tl.reads++
				}
			}
		}(w)
	}
	wg.Wait()
	armed.Store(false)
	var sum tally
	for _, tl := range tallies {
		sum.enq, sum.deq, sum.oneEnq, sum.oneDeq = sum.enq+tl.enq, sum.deq+tl.deq, sum.oneEnq+tl.oneEnq, sum.oneDeq+tl.oneDeq
		sum.oneFull, sum.appends, sum.logFull = sum.oneFull+tl.oneFull, sum.appends+tl.appends, sum.logFull+tl.logFull
		sum.reads += tl.reads
	}
	ps, os, ls := pool.Stats(), one.Stats(), lg.Stats()
	if ps.Enqueues != sum.enq || ps.Dequeues != sum.deq {
		t.Errorf("pool stats: %d enqueues, %d dequeues; callers counted %d, %d", ps.Enqueues, ps.Dequeues, sum.enq, sum.deq)
	}
	if ps.FullRejects != 0 || sum.enq != workers*rounds {
		t.Errorf("pool stats: %d full rejects, %d of %d enqueues succeeded; want 0 and all", ps.FullRejects, sum.enq, workers*rounds)
	}
	if ps.Steals == 0 || uint64(ps.Len) != ps.Enqueues-ps.Dequeues {
		t.Errorf("pool stats: %d steals, len %d; want steals > 0 and len = %d enqueues - %d dequeues",
			ps.Steals, ps.Len, ps.Enqueues, ps.Dequeues)
	}
	if os.Enqueues != sum.oneEnq || os.Dequeues != sum.oneDeq || os.FullRejects != sum.oneFull {
		t.Errorf("one-shard pool stats: %d enqueues, %d dequeues, %d full rejects; callers counted %d, %d, %d",
			os.Enqueues, os.Dequeues, os.FullRejects, sum.oneEnq, sum.oneDeq, sum.oneFull)
	}
	if ls.Appends != sum.appends || ls.FullRejects != sum.logFull || ls.Reads != sum.reads {
		t.Errorf("log stats: %d appends, %d full rejects, %d reads; callers counted %d, %d, %d",
			ls.Appends, ls.FullRejects, ls.Reads, sum.appends, sum.logFull, sum.reads)
	}
	for w, c := range cursors {
		if got := ls.Consumers[c.Slot()].Reads; got != tallies[w].reads {
			t.Errorf("cursor %d: %d reads, its caller counted %d", w, got, tallies[w].reads)
		}
	}
	if st := m.Stats(); st.HelpCompletions == 0 {
		t.Fatalf("no helper completed a stalled section (%d helps): the helped path never ran", st.Helps)
	}
	cursors[0].Close()
	again, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.Stats().Consumers[again.Slot()].Reads; got != 0 {
		t.Fatalf("a re-attached cursor starts with %d reads, want 0", got)
	}
}

// TestDequeueBatchEmptyLooksBeforeLocking: a DequeueBatch that times out
// on an empty pool reads every shard's occupancy instead of locking it,
// so it makes no lock attempt and its empty passes show in
// EmptyRejects.
func TestDequeueBatchEmptyLooksBeforeLocking(t *testing.T) {
	m := poolManager(t, 2, 8)
	wp, err := NewWorkPool[uint64](m, WithPoolShards(4))
	if err != nil {
		t.Fatal(err)
	}
	attempts := m.Stats().Attempts
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if got, err := wp.DequeueBatch(ctx, 8); !errors.Is(err, ErrCanceled) || len(got) != 0 {
		t.Fatalf("DequeueBatch on an empty pool = (%v, %v), want (nothing, ErrCanceled)", got, err)
	}
	if n := m.Stats().Attempts - attempts; n != 0 {
		t.Errorf("DequeueBatch on an empty pool made %d lock attempts, want 0", n)
	}
	if s := wp.Stats(); s.EmptyRejects == 0 {
		t.Error("EmptyRejects did not rise for the empty passes")
	}
}
