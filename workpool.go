package wflocks

import (
	"context"
	"fmt"
	"sync/atomic"

	"wflocks/internal/stats"
	"wflocks/internal/table"
)

// WorkPool is a sharded relaxed-FIFO work-distribution queue: a
// power-of-two number of bounded sub-rings (each a Queue-style ring
// guarded by its own wait-free lock), with round-robin submission and
// two-lock work stealing. Producers spread across shards, so submit
// throughput scales with the shard count the way Map and Cache
// operations do — per-lock contention drops toward κ/shards and every
// critical section stays O(batch). Consumers drain their round-robin
// "home" shard; a consumer that finds its home empty while other
// shards hold work *steals*: one critical section over two shard locks
// (the paper's multi-lock acquisition at L=2) pops an element for the
// caller and migrates a small batch from the victim to the home shard,
// rebalancing the pool as a side effect.
//
// A consumer looks before it locks: it reads a shard's lock-free
// occupancy first and takes the shard's lock only when that reads
// non-zero, because a pass over an empty ring changes nothing and an
// attempt costs the same whether or not it does. Like a parked
// consumer, it therefore helps nobody on a shard that reads empty: an
// element whose producer is stalled inside its enqueue section becomes
// visible when that section completes, run by the producer or by
// whoever next attempts that shard's lock.
//
// The ordering guarantee is deliberately weaker than Queue's, and that
// is the price of the scaling: elements are FIFO *within a shard*, but
// there is no global FIFO order — round-robin interleaves producers
// across shards, and a stolen batch jumps behind the home shard's
// existing elements. Use WorkPool when elements are independent work
// items (the common pool case) and Queue — this same pool with exactly
// one shard, hence strictly FIFO — when cross-element order matters.
//
// Construct with NewWorkPool (integer elements) or NewWorkPoolOf
// (explicit codec). A pool with more than one shard needs a manager
// configured with WithMaxLocks(2) or more for the steal path. All
// methods are safe for concurrent use.
type WorkPool[T any] struct {
	m *Manager
	// noun names the structure in cancellation errors: "pool", or
	// "queue" for the one-shard pool behind a Queue.
	noun  string
	rings []qring[T]
	// locks[s] guards rings[s]; locks[s:s+1] is shard s's single-lock
	// set, so the runner's lock sets exist from construction on.
	locks  []*Lock
	steals []*Cell[uint64] // per shard: elements gained by stealing
	// emptyReads[s] counts the dequeue passes that read shard s's
	// occupancy as zero and so never took its lock; Stats adds them to
	// the rejects the locked passes count in the ring.
	emptyReads []atomic.Uint64

	shardMask uint64
	batch     int

	opBudget    int // single-item critical section
	batchBudget int // batch critical section
	stealBudget int // two-lock steal critical section

	// rr and dq are the round-robin cursors for submission and
	// consumption. They are plain atomics, not cells: they only spread
	// traffic, so they need no critical-section atomicity.
	rr atomic.Uint64
	dq atomic.Uint64

	// sleepers counts the consumers registered in park; wake carries at
	// most one pending wake-up for them. Every enqueue form that moved an
	// element loads sleepers and, only if it is non-zero, sends on wake
	// without blocking; one token is enough because whoever it wakes
	// hands the wake on while elements and sleepers remain (wakeMore).
	sleepers atomic.Int32
	wake     chan struct{}
}

// stealBatch is the number of elements a steal migrates from the
// victim to the home shard, in addition to the one it returns to the
// caller. It is a constant so the steal critical section's budget is
// fixed at construction.
const stealBatch = 4

// Default pool shape: 8 shards, 1024 slots total, batches of 8.
const (
	defaultPoolShards   = 8
	defaultPoolCapacity = 1024
	defaultPoolBatch    = 8
)

// WorkPoolOption configures a WorkPool at construction.
type WorkPoolOption func(*poolConfig) error

type poolConfig struct {
	shards   int
	capacity int
	batch    int
}

// WithPoolShards sets the number of sub-rings, rounded up to a power of
// two (default 8). More shards mean fewer producers colliding on any
// one lock; the cost is weaker ordering (FIFO is per shard) and, under
// uneven drain, more steals.
func WithPoolShards(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolShards: shard count must be positive, got %d", n)
		}
		c.shards = table.CeilPow2(n)
		return nil
	}
}

// WithPoolCapacity sets the pool's total slot count (default 1024). It
// is split evenly across shards and each shard's share is rounded up
// to a power of two, so the effective capacity — reported by Cap — may
// exceed the request.
func WithPoolCapacity(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = n
		return nil
	}
}

// WithPoolBatch sets the largest number of elements one EnqueueBatch or
// DequeueBatch critical section moves (default 8), with the same
// budget trade-off as WithQueueBatch.
func WithPoolBatch(n int) WorkPoolOption {
	return func(c *poolConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithPoolBatch: batch must be positive, got %d", n)
		}
		c.batch = n
		return nil
	}
}

// WorkPoolCriticalSteps returns the WithMaxCriticalSteps bound T a
// Manager needs to host a WorkPool with the given element width and
// batch size (WithPoolBatch). The pool's worst critical section is
// either a batch (batch element moves, as in QueueCriticalSteps) or a
// steal — one dequeue for the caller plus stealBatch ring-to-ring
// migrations, each a dequeue/enqueue pair — whichever budgets larger.
func WorkPoolCriticalSteps(valueWords, batch int) int {
	stealItems := 1 + 2*stealBatch
	if batch < stealItems {
		batch = stealItems
	}
	return QueueCriticalSteps(valueWords, batch)
}

// NewWorkPool creates a pool of integer elements, the common case,
// using the built-in single-word codec. See NewWorkPoolOf for
// arbitrary types.
func NewWorkPool[T Integer](m *Manager, opts ...WorkPoolOption) (*WorkPool[T], error) {
	return NewWorkPoolOf[T](m, IntegerCodec[T](), opts...)
}

// NewWorkPoolOf creates a pool whose elements are encoded by the given
// codec. The manager's WithMaxCriticalSteps bound must cover the
// pool's worst critical section — WorkPoolCriticalSteps computes the
// requirement — and, for a pool of more than one shard, WithMaxLocks
// must be at least 2 (the steal path acquires two shard locks in one
// attempt); either shortfall is reported as an error.
func NewWorkPoolOf[T any](m *Manager, vc Codec[T], opts ...WorkPoolOption) (*WorkPool[T], error) {
	cfg := poolConfig{shards: defaultPoolShards, capacity: defaultPoolCapacity, batch: defaultPoolBatch}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.shards > 1 && m.cfg.maxLocks < 2 {
		return nil, fmt.Errorf(
			"wflocks: NewWorkPoolOf: %d shards need the two-lock steal path; configure the manager with WithMaxLocks(2) or use one shard",
			cfg.shards)
	}
	budget := WorkPoolCriticalSteps(vc.Words(), cfg.batch)
	if budget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: NewWorkPoolOf: batch %d with %d-word elements needs WithMaxCriticalSteps(%d), "+
				"manager has %d (see WorkPoolCriticalSteps)",
			cfg.batch, vc.Words(), budget, m.cfg.maxCritical)
	}
	return newPool(m, vc, cfg, "pool"), nil
}

// newPool builds the rings and locks of a pool whose options and
// budget the public constructor (NewWorkPoolOf, or NewQueueOf for its
// one-shard pool) has already validated.
func newPool[T any](m *Manager, vc Codec[T], cfg poolConfig, noun string) *WorkPool[T] {
	perShard := table.CeilPow2((cfg.capacity + cfg.shards - 1) / cfg.shards)
	wp := &WorkPool[T]{
		m:           m,
		noun:        noun,
		rings:       make([]qring[T], cfg.shards),
		locks:       make([]*Lock, cfg.shards),
		steals:      make([]*Cell[uint64], cfg.shards),
		emptyReads:  make([]atomic.Uint64, cfg.shards),
		shardMask:   uint64(cfg.shards - 1),
		batch:       cfg.batch,
		opBudget:    QueueCriticalSteps(vc.Words(), 1),
		batchBudget: QueueCriticalSteps(vc.Words(), cfg.batch),
		stealBudget: QueueCriticalSteps(vc.Words(), 1+2*stealBatch),
		wake:        make(chan struct{}, 1),
	}
	for s := range wp.rings {
		wp.rings[s] = newQring(vc, perShard)
		wp.locks[s] = m.NewLock()
		wp.steals[s] = NewCell(uint64(0))
	}
	return wp
}

// Shards reports the shard count (after power-of-two rounding).
func (wp *WorkPool[T]) Shards() int { return len(wp.rings) }

// Cap reports the total slot count after per-shard rounding; it is at
// least the WithPoolCapacity request.
func (wp *WorkPool[T]) Cap() int { return len(wp.rings) * wp.rings[0].capacity }

// TryEnqueue submits v to the next shard in round-robin order, probing
// each shard at most once; it reports false only when every shard is
// full.
func (wp *WorkPool[T]) TryEnqueue(v T) bool {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.tryEnqueueFrom(p, wp.rr.Add(1)-1, v)
}

func (wp *WorkPool[T]) tryEnqueueFrom(p *Process, start uint64, v T) bool {
	for j := 0; j < len(wp.rings); j++ {
		si := int((start + uint64(j)) & wp.shardMask)
		ring := &wp.rings[si]
		ok := NewBoolCell(false)
		wp.m.run(context.Background(), p, wp.locks[si:si+1], wp.opBudget, txFrame(func(tx *Tx) {
			if ring.enqOne(tx, v) {
				Put(tx, ok, true)
			} else {
				Put(tx, ring.fulls, Get(tx, ring.fulls)+1)
			}
		}))
		if ok.Get(p) {
			wp.wakeSleeper()
			return true
		}
	}
	return false
}

// wakeSleeper is what a completed enqueue owes the consumers: one
// atomic load, and a non-blocking wake when somebody is parked. A full
// slot means a wake is already pending, which is as good.
func (wp *WorkPool[T]) wakeSleeper() {
	if wp.sleepers.Load() > 0 {
		select {
		case wp.wake <- struct{}{}:
		default:
		}
	}
}

// wakeMore is wakeSleeper for a consumer leaving a blocking form, with
// elements or cancelled: producers send at most one pending wake however
// many elements they add, so a consumer leaving elements behind while
// others sleep wakes the next one. Two elements therefore never wait
// behind one consumer, even one that stalls right after its dequeue,
// and none waits behind a consumer whose ctx ended as the wake reached it.
func (wp *WorkPool[T]) wakeMore(p *Process) {
	if wp.sleepers.Load() > 0 && !wp.readsEmpty(p) {
		wp.wakeSleeper()
	}
}

// readsEmpty reports whether every shard's lock-free occupancy reads zero.
func (wp *WorkPool[T]) readsEmpty(p *Process) bool {
	for s := range wp.rings {
		if wp.rings[s].lenWith(p) > 0 {
			return false
		}
	}
	return true
}

// park is the empty side of await: it blocks the consumer until an
// enqueue signals wake or ctx is done. The consumer registers as a
// sleeper first and re-reads every shard's occupancy after that, while
// an enqueue completes its section first and loads sleepers after
// that, so one of the two sees the other: an element that is visible
// is never left with every consumer asleep.
func (wp *WorkPool[T]) park(ctx context.Context, p *Process) {
	wp.sleepers.Add(1)
	defer wp.sleepers.Add(-1)
	if !wp.readsEmpty(p) {
		return
	}
	select {
	case <-wp.wake:
	case <-ctx.Done():
	}
}

// TryDequeue pops an element, reporting false when the pool has none
// it can reach in one pass. The consumer's round-robin home shard is
// tried first, with a single-lock dequeue unless its occupancy reads
// zero (counted in EmptyRejects all the same); if the home is empty and
// another shard holds work, the fullest other shard is raided on the
// two-lock steal path — the returned element comes from the victim and
// up to stealBatch more elements migrate to the home shard, so
// subsequent dequeues hit locally. A false return does not guarantee
// the pool was empty at any single instant (shards are inspected one
// at a time); producers and consumers using the blocking forms never
// miss work, because they retry.
func (wp *WorkPool[T]) TryDequeue() (T, bool) {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.tryDequeueWith(p)
}

func (wp *WorkPool[T]) tryDequeueWith(p *Process) (T, bool) {
	var zero T
	home := int((wp.dq.Add(1) - 1) & wp.shardMask)
	ring := &wp.rings[home]
	// Look before locking: an empty pass changes nothing, so a home ring
	// whose lock-free occupancy (what park trusts) reads zero is counted
	// and left alone. The read is advisory, as the victim scan's is.
	if ring.lenWith(p) == 0 {
		wp.emptyReads[home].Add(1)
	} else {
		out := newResultCell(ring.vc)
		ok := NewBoolCell(false)
		wp.m.run(context.Background(), p, wp.locks[home:home+1], wp.opBudget, txFrame(func(tx *Tx) {
			if ring.deqOne(tx, out) {
				Put(tx, ok, true)
			} else {
				Put(tx, ring.empties, Get(tx, ring.empties)+1)
			}
		}))
		if ok.Get(p) {
			return out.Get(p), true
		}
	}
	if len(wp.rings) == 1 {
		return zero, false
	}
	// Home is empty: pick the fullest other shard by its lock-free
	// occupancy and raid it. The read is advisory — the steal re-checks
	// under both locks.
	victim, best := -1, 0
	for s := range wp.rings {
		if s == home {
			continue
		}
		if n := wp.rings[s].lenWith(p); n > best {
			victim, best = s, n
		}
	}
	if victim < 0 {
		return zero, false
	}
	vr := &wp.rings[victim]
	out := newResultCell(ring.vc)
	stolen := NewCell(uint64(0))
	// Canonical acquisition order, as the transaction layer sorts.
	pair := [2]*Lock{wp.locks[home], wp.locks[victim]}
	if pair[0].ID() > pair[1].ID() {
		pair[0], pair[1] = pair[1], pair[0]
	}
	wp.m.run(context.Background(), p, pair[:], wp.stealBudget, txFrame(func(tx *Tx) {
		if !vr.deqOne(tx, out) {
			Put(tx, vr.empties, Get(tx, vr.empties)+1)
			return
		}
		moved := uint64(1)
		for j := 0; j < stealBatch; j++ {
			if !moveOne(tx, vr, ring) {
				break
			}
			moved++
		}
		Put(tx, stolen, moved)
		Put(tx, wp.steals[home], Get(tx, wp.steals[home])+moved)
	}))
	if stolen.Get(p) == 0 {
		return zero, false
	}
	return out.Get(p), true
}

// TryEnqueueKeyed submits v with shard affinity: probing starts at the
// shard selected by key's low bits instead of the round-robin cursor,
// so elements sharing a key land on the same sub-ring (and, under even
// drain, the same consumers) whenever that shard has room. The
// fallback is the same as TryEnqueue's — the remaining shards are
// probed in order, and false means every shard was full — so affinity
// is a locality hint, never an admission constraint. Callers that need
// a stable mapping should pass a hash of the key, not the key itself:
// only the low bits select the shard.
func (wp *WorkPool[T]) TryEnqueueKeyed(key uint64, v T) bool {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.tryEnqueueFrom(p, key, v)
}

// EnqueueKeyed submits v with TryEnqueueKeyed's shard affinity, waiting
// while every shard is full under the same retry/cancellation contract
// as Enqueue.
func (wp *WorkPool[T]) EnqueueKeyed(ctx context.Context, key uint64, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.m.await(ctx, wp.noun, "full", func() bool { return wp.tryEnqueueFrom(p, key, v) }, nil)
}

// Enqueue submits v, waiting while every shard is full: failed passes
// apply the manager's RetryPolicy and the wait ends with an error
// wrapping ErrCanceled once ctx is done. A nil return means v was
// enqueued exactly once.
func (wp *WorkPool[T]) Enqueue(ctx context.Context, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.m.await(ctx, wp.noun, "full", func() bool { return wp.tryEnqueueFrom(p, wp.rr.Add(1)-1, v) }, nil)
}

// Dequeue pops an element, waiting while the pool is empty. The
// manager's RetryPolicy governs a small constant number of failed
// passes, which on an empty pool are occupancy reads, not lock attempts;
// after them the consumer parks — it sleeps until an enqueue wakes it or
// ctx is done — so an idle consumer costs nothing. A parked consumer,
// like one whose passes read empty, helps nobody: an element whose
// producer stalls inside the enqueue section becomes visible when that
// section completes, run by the producer or by anyone helping on that
// shard's lock, and the wake follows it. The wait ends with an error
// wrapping ErrCanceled once ctx is done, parked or not.
func (wp *WorkPool[T]) Dequeue(ctx context.Context) (T, error) {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	var v T
	err := wp.awaitWork(ctx, p, func() (ok bool) {
		v, ok = wp.tryDequeueWith(p)
		return ok
	})
	return v, err
}

// awaitWork is the consumer side of the blocking forms: await with the
// pool's park as its idle step, and the wake handed on however the wait
// ended. A consumer whose ctx is done may have received the one pending
// wake in park and leaves without looking at the rings, so it owes the
// hand-on as much as one that took an element does.
func (wp *WorkPool[T]) awaitWork(ctx context.Context, p *Process, try func() bool) error {
	err := wp.m.await(ctx, wp.noun, "empty", try, func() { wp.park(ctx, p) })
	wp.wakeMore(p)
	return err
}

// EnqueueBatch submits vs, amortizing lock acquisitions: elements are
// moved in chunks of up to the WithPoolBatch size, each chunk one
// critical section on one round-robin shard (chunks are atomic,
// the batch as a whole is not — and, as always with the pool,
// consumers may interleave chunks from different producers). When
// every shard is full it waits under the Enqueue retry contract. It
// returns the number of elements enqueued, which is len(vs) unless ctx
// was done first.
func (wp *WorkPool[T]) EnqueueBatch(ctx context.Context, vs []T) (int, error) {
	// Critical-section bodies must capture only data that stays
	// immutable even after the call returns — a straggling helper may
	// still be re-executing a body — so snapshot the caller's slice.
	items := append([]T(nil), vs...)
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	done := 0
	for done < len(items) {
		chunk := items[done:min(done+wp.batch, len(items))]
		err := wp.m.await(ctx, wp.noun, "full", func() bool {
			moved := 0
			start := wp.rr.Add(1) - 1
			for j := 0; j < len(wp.rings) && moved == 0; j++ {
				moved = wp.enqueueChunk(p, int((start+uint64(j))&wp.shardMask), chunk)
			}
			done += moved
			return moved > 0
		}, nil)
		if err != nil {
			return done, fmt.Errorf("%d of %d enqueued: %w", done, len(items), err)
		}
	}
	return done, nil
}

// enqueueChunk appends as much of chunk as fits to shard si in one
// critical section and returns the number of elements moved.
func (wp *WorkPool[T]) enqueueChunk(p *Process, si int, chunk []T) int {
	ring := &wp.rings[si]
	n := NewCell(uint64(0))
	wp.m.run(context.Background(), p, wp.locks[si:si+1], wp.batchBudget, txFrame(func(tx *Tx) {
		k := uint64(0)
		for _, v := range chunk {
			if !ring.enqOne(tx, v) {
				Put(tx, ring.fulls, Get(tx, ring.fulls)+1)
				break
			}
			k++
		}
		Put(tx, n, k)
	}))
	moved := int(n.Get(p))
	if moved > 0 {
		wp.wakeSleeper()
	}
	return moved
}

// DequeueBatch pops up to max elements, waiting only until the first
// is available: shards are scanned in round-robin order and drained in
// WithPoolBatch-sized atomic chunks until max is reached or a pass
// finds every shard it probes short of a full chunk — the pool was
// empty at those instants, so the drain ends without re-probing. The
// scan visits every shard, so the batch path needs no steal. Elements
// within one chunk preserve their shard's FIFO order; chunks from
// different shards interleave (relaxed FIFO). While empty-handed it
// waits as Dequeue does — a few passes under the RetryPolicy, then
// parked until an enqueue wakes it — and it returns an error wrapping
// ErrCanceled once ctx is done while still empty-handed.
func (wp *WorkPool[T]) DequeueBatch(ctx context.Context, max int) ([]T, error) {
	if max <= 0 {
		return nil, nil
	}
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	var got []T
	err := wp.awaitWork(ctx, p, func() bool {
		for len(got) < max {
			fullChunk := false
			start := wp.dq.Add(1) - 1
			for j := 0; j < len(wp.rings) && len(got) < max; j++ {
				want := min(max-len(got), wp.batch)
				before := len(got)
				got = wp.dequeueChunk(p, int((start+uint64(j))&wp.shardMask), want, got)
				fullChunk = fullChunk || len(got)-before == want
			}
			if !fullChunk {
				break
			}
		}
		return len(got) > 0
	})
	return got, err
}

// dequeueChunk pops up to want elements from shard si in one critical
// section and returns got with them appended.
func (wp *WorkPool[T]) dequeueChunk(p *Process, si, want int, got []T) []T {
	ring := &wp.rings[si]
	outs := make([]*Cell[T], want)
	for i := range outs {
		outs[i] = newResultCell(ring.vc)
	}
	n := NewCell(uint64(0))
	wp.m.run(context.Background(), p, wp.locks[si:si+1], wp.batchBudget, txFrame(func(tx *Tx) {
		k := uint64(0)
		for i := 0; i < want; i++ {
			if !ring.deqOne(tx, outs[i]) {
				Put(tx, ring.empties, Get(tx, ring.empties)+1)
				break
			}
			k++
		}
		Put(tx, n, k)
	}))
	for _, out := range outs[:n.Get(p)] {
		got = append(got, out.Get(p))
	}
	return got
}

// Len reports the number of pooled elements: the sum of the shards'
// lock-free occupancy reads, with Queue.Len's consistency caveat
// (each shard is read at a slightly different instant).
func (wp *WorkPool[T]) Len() int {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	n := 0
	for s := range wp.rings {
		n += wp.rings[s].lenWith(p)
	}
	return n
}

// WorkPoolShardStats is one shard's view in WorkPoolStats.
type WorkPoolShardStats struct {
	// Lock carries the shard lock's contention counters.
	Lock LockStats
	// Enqueues and Dequeues count completed operations on this shard.
	// A stolen element counts its dequeue on the victim shard; migrated
	// elements keep their original enqueue shard and count their
	// eventual dequeue wherever they are drained.
	Enqueues, Dequeues uint64
	// Steals counts elements this shard gained by raiding others (the
	// returned element plus the migrated batch).
	Steals uint64
	// FullRejects and EmptyRejects count passes that observed this
	// shard full/empty (round-robin probing and steal re-checks
	// included; an empty observation may be a lock-free occupancy read
	// rather than an attempt).
	FullRejects, EmptyRejects uint64
	// Len is the shard's current occupancy.
	Len int
}

// WorkPoolStats is a point-in-time view of the pool's per-shard
// traffic, exact at quiescence.
type WorkPoolStats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []WorkPoolShardStats
	// Enqueues, Dequeues, Steals, FullRejects and EmptyRejects are the
	// summed counters.
	Enqueues, Dequeues, Steals, FullRejects, EmptyRejects uint64
	// Len is the summed occupancy.
	Len int
	// Parked is the number of consumers currently parked in a blocking
	// Dequeue or DequeueBatch on the empty pool.
	Parked int
	// Balance is Jain's fairness index over per-shard enqueue counts:
	// 1.0 when round-robin spread submissions evenly, approaching
	// 1/shards under maximal skew.
	Balance float64
	// MaxOverMean is the hottest shard's enqueues over the mean.
	MaxOverMean float64
}

// Stats snapshots the pool's per-shard counters and occupancy.
func (wp *WorkPool[T]) Stats() WorkPoolStats {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	ps := WorkPoolStats{
		Shards: make([]WorkPoolShardStats, len(wp.rings)),
		Parked: int(wp.sleepers.Load()),
	}
	enqs := make([]uint64, len(wp.rings))
	for s := range wp.rings {
		ring := &wp.rings[s]
		st := WorkPoolShardStats{
			Lock:         wp.locks[s].stats(),
			Enqueues:     ring.enqs.Get(p),
			Dequeues:     ring.deqs.Get(p),
			Steals:       wp.steals[s].Get(p),
			FullRejects:  ring.fulls.Get(p),
			EmptyRejects: ring.empties.Get(p) + wp.emptyReads[s].Load(),
			Len:          ring.lenWith(p),
		}
		ps.Shards[s] = st
		ps.Enqueues += st.Enqueues
		ps.Dequeues += st.Dequeues
		ps.Steals += st.Steals
		ps.FullRejects += st.FullRejects
		ps.EmptyRejects += st.EmptyRejects
		ps.Len += st.Len
		enqs[s] = st.Enqueues
	}
	d := stats.NewShardDist(enqs)
	ps.Balance = d.Jain
	ps.MaxOverMean = d.MaxOverMean
	return ps
}
