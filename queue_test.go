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

// queueManager builds a manager sized for queue tests: κ as given,
// single locks, T covering a batch critical section, and delay
// constants of 1 to keep the fixed stalls short on test machines.
func queueManager(t testing.TB, kappa, batch int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(1),
		WithMaxCriticalSteps(QueueCriticalSteps(1, batch)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQueueBasic(t *testing.T) {
	m := queueManager(t, 2, 4)
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue on an empty queue succeeded")
	}
	for v := uint64(1); v <= 4; v++ {
		if !q.TryEnqueue(v * 10) {
			t.Fatalf("TryEnqueue(%d) failed below capacity", v*10)
		}
	}
	if q.TryEnqueue(99) {
		t.Fatal("TryEnqueue succeeded on a full queue")
	}
	if got := q.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	for v := uint64(1); v <= 4; v++ {
		got, ok := q.TryDequeue()
		if !ok || got != v*10 {
			t.Fatalf("TryDequeue = (%d, %v), want (%d, true)", got, ok, v*10)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue on a drained queue succeeded")
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

func TestQueueWraparound(t *testing.T) {
	m := queueManager(t, 2, 1)
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	// Three laps of interleaved traffic: every slot is reused several
	// times, with the queue length oscillating across the full/empty
	// boundary.
	next := uint64(0) // next value to dequeue
	sent := uint64(0) // next value to enqueue
	for lap := 0; lap < 3; lap++ {
		for sent < next+4 { // fill
			if !q.TryEnqueue(sent) {
				t.Fatalf("fill enqueue(%d) failed at Len=%d", sent, q.Len())
			}
			sent++
		}
		for next+1 < sent { // drain to one element
			got, ok := q.TryDequeue()
			if !ok || got != next {
				t.Fatalf("drain = (%d, %v), want (%d, true)", got, ok, next)
			}
			next++
		}
	}
	for next < sent {
		got, ok := q.TryDequeue()
		if !ok || got != next {
			t.Fatalf("final drain = (%d, %v), want (%d, true)", got, ok, next)
		}
		next++
	}
}

// ringStats is the counter set Queue and a one-shard WorkPool share.
type ringStats struct {
	Enqueues, Dequeues, FullRejects, EmptyRejects uint64
	Attempts, Wins                                uint64
}

// TestQueueStatsExact runs one op script against a Queue and against
// WorkPool(WithPoolShards(1)) and demands the same exact counters from
// both: the queue is the one-shard pool, so every rejection and every
// lock acquisition must match. The script ends its drain on a short
// chunk, pinning the shared rule that a chunk that comes up short ends
// DequeueBatch without a further probe (one more acquisition and one
// spurious EmptyRejects otherwise).
func TestQueueStatsExact(t *testing.T) {
	type ringOwner interface {
		TryEnqueue(uint64) bool
		TryDequeue() (uint64, bool)
		EnqueueBatch(context.Context, []uint64) (int, error)
		DequeueBatch(context.Context, int) ([]uint64, error)
	}
	script := func(t *testing.T, r ringOwner) {
		t.Helper()
		ctx := context.Background()
		for v := uint64(1); v <= 4; v++ {
			if !r.TryEnqueue(v) {
				t.Fatalf("TryEnqueue(%d) failed below capacity", v)
			}
		}
		if r.TryEnqueue(5) { // full
			t.Fatal("TryEnqueue succeeded on a full ring")
		}
		if v, ok := r.TryDequeue(); !ok || v != 1 {
			t.Fatalf("TryDequeue = (%d, %v), want (1, true)", v, ok)
		}
		if n, err := r.EnqueueBatch(ctx, []uint64{6}); n != 1 || err != nil {
			t.Fatalf("EnqueueBatch = (%d, %v), want (1, nil)", n, err)
		}
		// Two sections: a full chunk of 2, then the 1 that reaches max.
		if got, err := r.DequeueBatch(ctx, 3); err != nil || len(got) != 3 || got[0] != 2 || got[2] != 4 {
			t.Fatalf("DequeueBatch(3) = (%v, %v), want [2 3 4]", got, err)
		}
		// One section: the chunk comes up short (1 of 2) and ends the drain.
		if got, err := r.DequeueBatch(ctx, 4); err != nil || len(got) != 1 || got[0] != 6 {
			t.Fatalf("DequeueBatch(4) = (%v, %v), want [6]", got, err)
		}
		if _, ok := r.TryDequeue(); ok { // empty
			t.Fatal("TryDequeue succeeded on an empty ring")
		}
	}
	// Ten acquisitions, not eleven: the closing TryDequeue reads the
	// ring's occupancy as zero and never takes the lock, yet is counted
	// in EmptyRejects beside the short chunk's locked observation.
	want := ringStats{Enqueues: 5, Dequeues: 5, FullRejects: 1, EmptyRejects: 2, Attempts: 10, Wins: 10}

	m := poolManager(t, 2, 2)
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	script(t, q)
	qs := q.Stats()
	if got := (ringStats{qs.Enqueues, qs.Dequeues, qs.FullRejects, qs.EmptyRejects, qs.Lock.Attempts, qs.Lock.Wins}); got != want {
		t.Fatalf("queue stats = %+v, want %+v", got, want)
	}
	if qs.Len != 0 || qs.Capacity != 4 {
		t.Fatalf("queue shape = len %d cap %d, want 0/4", qs.Len, qs.Capacity)
	}

	wp, err := NewWorkPool[uint64](m, WithPoolShards(1), WithPoolCapacity(4), WithPoolBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	script(t, wp)
	ps := wp.Stats()
	sh := ps.Shards[0]
	if got := (ringStats{ps.Enqueues, ps.Dequeues, ps.FullRejects, ps.EmptyRejects, sh.Lock.Attempts, sh.Lock.Wins}); got != want {
		t.Fatalf("one-shard pool stats = %+v, want %+v", got, want)
	}
	if ps.Steals != 0 || ps.Len != 0 || wp.Cap() != 4 {
		t.Fatalf("one-shard pool shape = steals %d len %d cap %d, want 0/0/4", ps.Steals, ps.Len, wp.Cap())
	}
}

func TestQueueBlockingCancellation(t *testing.T) {
	m := queueManager(t, 2, 1)
	q, err := NewQueue[uint64](m, WithQueueCapacity(2), WithQueueBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Dequeue on empty = %v, want ErrCanceled", err)
	}
	q.TryEnqueue(1)
	q.TryEnqueue(2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if err := q.Enqueue(ctx2, 3); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Enqueue on full = %v, want ErrCanceled", err)
	}
}

func TestQueueBlockingHandoff(t *testing.T) {
	m := queueManager(t, 4, 1)
	q, err := NewQueue[uint64](m, WithQueueCapacity(2), WithQueueBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan uint64, 1)
	go func() {
		v, err := q.Dequeue(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	if err := q.Enqueue(ctx, 42); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 42 {
		t.Fatalf("handoff delivered %d, want 42", v)
	}
}

func TestQueueBatch(t *testing.T) {
	m := queueManager(t, 2, 3)
	q, err := NewQueueOf[uint64](m, IntegerCodec[uint64](),
		WithQueueCapacity(8), WithQueueBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vs := []uint64{1, 2, 3, 4, 5, 6, 7}
	n, err := q.EnqueueBatch(ctx, vs)
	if err != nil || n != len(vs) {
		t.Fatalf("EnqueueBatch = (%d, %v), want (%d, nil)", n, err, len(vs))
	}
	// Chunks of 3 preserve global FIFO order on the single ring.
	got, err := q.DequeueBatch(ctx, 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("DequeueBatch = (%v, %v), want 5 elements", got, err)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("batch order: got[%d] = %d, want %d", i, v, i+1)
		}
	}
	// DequeueBatch does not wait once it holds elements: asking for
	// more than remain returns what is there.
	got, err = q.DequeueBatch(ctx, 100)
	if err != nil || len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("tail DequeueBatch = (%v, %v), want [6 7]", got, err)
	}
	// Empty-handed with a dead context: the cancellation surfaces.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := q.DequeueBatch(cctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled DequeueBatch = %v, want ErrCanceled", err)
	}
	// A canceled EnqueueBatch reports how far it got.
	q2, err := NewQueue[uint64](m, WithQueueCapacity(2), WithQueueBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	tctx, tcancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer tcancel()
	n, err = q2.EnqueueBatch(tctx, []uint64{1, 2, 3, 4})
	if !errors.Is(err, ErrCanceled) || n != 2 {
		t.Fatalf("overfull EnqueueBatch = (%d, %v), want (2, ErrCanceled)", n, err)
	}
}

func TestQueueBatchOversizedRequest(t *testing.T) {
	m := queueManager(t, 2, 2)
	q, err := NewQueue[uint64](m, WithQueueCapacity(4), WithQueueBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A batch larger than the whole queue still goes through: chunks
	// are bounded by the batch size and a concurrent consumer makes
	// room between chunks.
	var drained []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(drained) < 10 {
			if v, ok := q.TryDequeue(); ok {
				drained = append(drained, v)
			} else {
				runtime.Gosched()
			}
		}
	}()
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = uint64(i)
	}
	n, err := q.EnqueueBatch(ctx, vs)
	if err != nil || n != 10 {
		t.Fatalf("EnqueueBatch = (%d, %v), want (10, nil)", n, err)
	}
	wg.Wait()
	for i, v := range drained {
		if v != uint64(i) {
			t.Fatalf("drained[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 200
	)
	m := queueManager(t, producers+consumers, 4)
	q, err := NewQueue[uint64](m, WithQueueCapacity(16), WithQueueBatch(4))
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
				if err := q.Enqueue(ctx, v); err != nil {
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
				if v, ok := q.TryDequeue(); ok {
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
	s := q.Stats()
	if s.Enqueues != total || s.Dequeues != total || s.Len != 0 {
		t.Fatalf("quiescent stats = %d enq, %d deq, len %d; want %d/%d/0", s.Enqueues, s.Dequeues, s.Len, total, total)
	}
}

func TestQueueOptionValidation(t *testing.T) {
	m := queueManager(t, 2, 8)
	if _, err := NewQueue[uint64](m, WithQueueCapacity(0)); err == nil {
		t.Fatal("WithQueueCapacity(0) accepted")
	}
	if _, err := NewQueue[uint64](m, WithQueueBatch(-1)); err == nil {
		t.Fatal("WithQueueBatch(-1) accepted")
	}
	// Capacity rounds up to a power of two.
	q, err := NewQueue[uint64](m, WithQueueCapacity(5))
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Fatalf("Cap after rounding = %d, want 8", q.Cap())
	}
	// A batch the manager's T cannot cover is a construction error.
	small, err := New(WithKappa(2), WithMaxLocks(1),
		WithMaxCriticalSteps(QueueCriticalSteps(1, 1)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueue[uint64](small, WithQueueBatch(64)); err == nil {
		t.Fatal("oversized batch budget accepted")
	}
	if _, err := NewQueue[uint64](small); err == nil {
		t.Fatal("default batch accepted against a 1-item budget")
	}
	if _, err := NewQueue[uint64](small, WithQueueBatch(1)); err != nil {
		t.Fatalf("1-item batch rejected: %v", err)
	}
}

// TestQueueMultiWordElements exercises a 2-word struct codec end to
// end: encodes happen inside critical sections, so multi-word elements
// are the shape that catches budget under-counting.
func TestQueueMultiWordElements(t *testing.T) {
	type job struct{ ID, Priority uint64 }
	codec := CodecFunc(2,
		func(j job, dst []uint64) { dst[0], dst[1] = j.ID, j.Priority },
		func(src []uint64) job { return job{src[0], src[1]} })
	m, err := New(
		WithKappa(2),
		WithMaxLocks(1),
		WithMaxCriticalSteps(QueueCriticalSteps(2, 2)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueueOf[job](m, codec, WithQueueCapacity(4), WithQueueBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if !q.TryEnqueue(job{ID: i, Priority: 100 - i}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := uint64(0); i < 4; i++ {
		j, ok := q.TryDequeue()
		if !ok || j.ID != i || j.Priority != 100-i {
			t.Fatalf("dequeue %d = (%+v, %v)", i, j, ok)
		}
	}
}
