package wflocks

import (
	"context"
	"fmt"

	"wflocks/internal/table"
)

// Queue is a generic bounded MPMC FIFO ring queue built on the
// manager's wait-free locks: it is the one-shard WorkPool. The ring
// state, the critical-section bodies and the blocking forms are the
// pool's (see WorkPool); with a single ring there is no round-robin
// spread and no steal, so what the pool guarantees per shard — strict
// FIFO order, atomic batch chunks — the queue guarantees globally. It
// inherits the locks' guarantees the same way: a producer or consumer
// stalled mid-operation (a preempted vCPU, a GC pause) can never wedge
// the queue, because competitors help its critical section complete,
// and every operation finishes within the O(κ²L²T) step bound.
//
// The queue has fixed capacity (rounded up to a power of two): growing
// the ring would make the worst-case critical section unbounded,
// voiding the T bound, so size it with WithQueueCapacity. TryEnqueue
// and TryDequeue fail fast on full/empty; Enqueue retries under the
// manager's RetryPolicy until space appears, Dequeue makes a few passes
// under it and then parks until an enqueue wakes it, and both end once
// their context is done. A one-shard pool never runs the two-lock steal
// section, so the queue needs neither WithMaxLocks(2) nor the steal
// term of WorkPoolCriticalSteps: QueueCriticalSteps is its whole
// budget.
//
// Construct with NewQueue (integer elements) or NewQueueOf (explicit
// codec). All methods are safe for concurrent use.
type Queue[T any] struct {
	pool *WorkPool[T]
}

// Default queue shape: 1024 slots, batches of 8 items per critical
// section.
const (
	defaultQueueCapacity = 1024
	defaultQueueBatch    = 8
)

// QueueOption configures a Queue at construction.
type QueueOption func(*queueConfig) error

type queueConfig struct {
	capacity int
	batch    int
}

// WithQueueCapacity sets the queue's slot count, rounded up to a power
// of two (default 1024). Capacity is fixed for the queue's lifetime —
// growing the ring would unbound the worst-case critical section — so
// it is also the bound on how far producers can run ahead of
// consumers.
func WithQueueCapacity(n int) QueueOption {
	return func(c *queueConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithQueueCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = table.CeilPow2(n)
		return nil
	}
}

// WithQueueBatch sets the largest number of elements one EnqueueBatch
// or DequeueBatch critical section moves (default 8). Larger batches
// amortize lock acquisitions but lengthen the worst-case critical
// section T — the batch budget is what QueueCriticalSteps grows with —
// so every attempt's fixed delays grow too.
func WithQueueBatch(n int) QueueOption {
	return func(c *queueConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithQueueBatch: batch must be positive, got %d", n)
		}
		c.batch = n
		return nil
	}
}

// Per-item and fixed overheads of a queue critical section, in
// single-word cell operations. A worst-case item is a dequeue: ticket
// reads (2), the element read and the result-cell write (valueWords
// each), the slot's sequence write (1), the ticket write (1) and 2
// spare (counters now settle after the section); enqueues cost the
// same with one valueWords term for the slot write. The fixed tail is
// routing headroom; the counters left it too, so it is slack.
const (
	queueItemOverhead  = 6
	queueFixedOverhead = 8
)

// QueueCriticalSteps returns the WithMaxCriticalSteps bound T a Manager
// needs to host a Queue whose elements are valueWords words wide and
// whose batch operations move up to batch elements per critical
// section (WithQueueBatch; single-element queues pass 1). It is the
// queue's instance of the budget math every cell-resident structure
// derives from (table.Budget for the shard structures): a bounded
// per-item term — there is no probe, so nothing scales with capacity —
// plus fixed routing overhead. WorkPool critical sections move more
// items per section (steal migration); see WorkPoolCriticalSteps.
func QueueCriticalSteps(valueWords, batch int) int {
	if batch < 1 {
		batch = 1
	}
	return batch*(2*valueWords+queueItemOverhead) + queueFixedOverhead
}

// NewQueue creates a queue of integer elements, the common case, using
// the built-in single-word codec. See NewQueueOf for arbitrary types.
func NewQueue[T Integer](m *Manager, opts ...QueueOption) (*Queue[T], error) {
	return NewQueueOf[T](m, IntegerCodec[T](), opts...)
}

// NewQueueOf creates a queue whose elements are encoded by the given
// codec (use CodecFunc for multi-word structs). The manager's
// WithMaxCriticalSteps bound must cover a worst-case batch critical
// section — QueueCriticalSteps computes the requirement — or NewQueueOf
// reports it as an error.
func NewQueueOf[T any](m *Manager, vc Codec[T], opts ...QueueOption) (*Queue[T], error) {
	cfg := queueConfig{capacity: defaultQueueCapacity, batch: defaultQueueBatch}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	batchBudget := QueueCriticalSteps(vc.Words(), cfg.batch)
	if batchBudget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: NewQueueOf: batch %d with %d-word elements needs WithMaxCriticalSteps(%d), "+
				"manager has %d (see QueueCriticalSteps)",
			cfg.batch, vc.Words(), batchBudget, m.cfg.maxCritical)
	}
	pool := newPool(m, vc, poolConfig{shards: 1, capacity: cfg.capacity, batch: cfg.batch}, "queue")
	return &Queue[T]{pool: pool}, nil
}

// Cap reports the queue's slot count (after power-of-two rounding).
func (q *Queue[T]) Cap() int { return q.pool.Cap() }

// TryEnqueue appends v, reporting false (without blocking or retrying
// beyond the acquisition itself) when the queue is full.
func (q *Queue[T]) TryEnqueue(v T) bool { return q.pool.TryEnqueue(v) }

// TryDequeue pops the oldest element, reporting false when the queue is
// empty.
func (q *Queue[T]) TryDequeue() (T, bool) { return q.pool.TryDequeue() }

// Enqueue appends v, waiting while the queue is full: failed attempts
// apply the manager's RetryPolicy (so a sleeping policy backs off and
// wakes early on cancellation), and the wait ends with an error
// wrapping ErrCanceled once ctx is done. A nil return means v was
// enqueued exactly once.
func (q *Queue[T]) Enqueue(ctx context.Context, v T) error { return q.pool.Enqueue(ctx, v) }

// Dequeue pops the oldest element, waiting while the queue is empty:
// a small constant number of failed passes under the manager's
// RetryPolicy, then parked — asleep, making no lock attempts — until an
// enqueue wakes it or ctx is done (an error wrapping ErrCanceled). A
// parked consumer helps nobody: an element whose producer stalls inside
// the enqueue section becomes visible when that section completes, run
// by the producer or by another producer helping on the queue's lock,
// and the wake follows it.
func (q *Queue[T]) Dequeue(ctx context.Context) (T, error) { return q.pool.Dequeue(ctx) }

// EnqueueBatch appends vs in order, amortizing lock acquisitions: the
// elements are moved in chunks of up to the WithQueueBatch size, each
// chunk one critical section (so each chunk is atomic — consumers see
// its elements appear together — but the batch as a whole is not).
// When the queue fills mid-batch, EnqueueBatch waits for space under
// the Enqueue retry contract. It returns the number of elements
// enqueued, which is len(vs) unless ctx was done first.
func (q *Queue[T]) EnqueueBatch(ctx context.Context, vs []T) (int, error) {
	return q.pool.EnqueueBatch(ctx, vs)
}

// DequeueBatch pops up to max elements in FIFO order, waiting only
// until the first element is available: once anything has been
// dequeued, it drains (in WithQueueBatch-sized atomic chunks) until a
// chunk comes up short — the queue was empty at that instant — or max
// is reached, and returns without further waiting. While empty-handed
// it waits as Dequeue does (a few passes, then parked until an enqueue
// wakes it) and returns an error wrapping ErrCanceled once ctx is done.
func (q *Queue[T]) DequeueBatch(ctx context.Context, max int) ([]T, error) {
	return q.pool.DequeueBatch(ctx, max)
}

// Len reports the number of queued elements. It is the lock-free fast
// path: it reads the tail and head ticket cells without taking the
// queue lock, so it never contends with producers or consumers. Under
// live traffic the two tickets are read at slightly different instants
// and the difference can be momentarily skewed; at quiescence it is
// exact.
func (q *Queue[T]) Len() int { return q.pool.Len() }

// QueueStats is a point-in-time view of a queue's traffic, with the
// same weak-consistency caveat as StatsSnapshot: counters are settled
// after each critical section, so they are exact at quiescence.
type QueueStats struct {
	// Lock carries the queue lock's contention counters (these same
	// counters appear in the manager-wide StatsSnapshot.Locks).
	Lock LockStats
	// Enqueues and Dequeues count completed operations (batch items
	// count individually).
	Enqueues, Dequeues uint64
	// FullRejects counts attempts that observed a full ring; EmptyRejects
	// counts passes that observed an empty one, by an attempt or by the
	// lock-free occupancy read TryDequeue makes first. The blocking
	// Enqueue/Dequeue paths add one per retried pass.
	FullRejects, EmptyRejects uint64
	// Len is the current occupancy; Capacity the slot count.
	Len, Capacity int
}

// Stats snapshots the queue's counters and occupancy.
func (q *Queue[T]) Stats() QueueStats {
	s := q.pool.Stats().Shards[0]
	return QueueStats{
		Lock:         s.Lock,
		Enqueues:     s.Enqueues,
		Dequeues:     s.Dequeues,
		FullRejects:  s.FullRejects,
		EmptyRejects: s.EmptyRejects,
		Len:          s.Len,
		Capacity:     q.pool.Cap(),
	}
}
