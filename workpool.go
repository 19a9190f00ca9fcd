package wflocks

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"wflocks/internal/idem"
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
	steals []atomic.Uint64 // per shard: elements gained by stealing
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
		steals:      make([]atomic.Uint64, cfg.shards),
		emptyReads:  make([]atomic.Uint64, cfg.shards),
		shardMask:   uint64(cfg.shards - 1),
		batch:       cfg.batch,
		opBudget:    QueueCriticalSteps(vc.Words(), 1),
		batchBudget: QueueCriticalSteps(vc.Words(), cfg.batch),
		stealBudget: QueueCriticalSteps(vc.Words(), 1+2*stealBatch),
		wake:        make(chan struct{}, 1),
	}
	for s := range wp.rings {
		wp.rings[s].init(vc, perShard)
		wp.locks[s] = m.NewLock()
	}
	return wp
}

// poolFrame is a pool section in frame form (see mapframe.go): with
// items, an enqueue of them to ring si while it has room; else a
// dequeue of up to want from ring si or, when vi is another ring, a
// steal of one from vi that migrates up to stealBatch more to si.
type poolFrame[T any] struct {
	wp     *WorkPool[T]
	items  []T
	one    [1]T // items of a single enqueue
	out    handout[T]
	si, vi int32
	want   int32
	moved  atomic.Uint32 // elements enqueued, dequeued or stolen
}

// RunThunk implements idem.Thunk.
func (f *poolFrame[T]) RunThunk(r *idem.Run) {
	tx := newTx(r)
	ring := &f.wp.rings[f.si]
	n := 0
	switch {
	case f.items != nil:
		for n < len(f.items) && ring.enqOne(tx, f.items[n]) {
			n++
		}
	case f.vi == f.si:
		for ; n < int(f.want); n++ {
			v, ok := ring.deqOne(tx)
			if !ok {
				break
			}
			f.out.put(tx, ring, n, v)
		}
	default:
		vr := &f.wp.rings[f.vi]
		if v, ok := vr.deqOne(tx); ok {
			f.out.put(tx, ring, 0, v)
			for n = 1; n <= stealBatch && moveOne(tx, vr, ring); n++ {
			}
		}
	}
	f.moved.Store(uint32(n))
}

// ExpectedOps implements idem.Sized: 4 operations per element plus two
// per element word (a result cell's included); migrations count twice.
func (f *poolFrame[T]) ExpectedOps() int {
	n := max(len(f.items), int(f.want))
	if f.vi != f.si {
		n = 1 + 2*stealBatch
	}
	return n * (4 + 2*f.wp.rings[0].vc.Words())
}

// enqueue appends items — v alone when items is nil — to shard si in
// one critical section and returns the number appended.
func (wp *WorkPool[T]) enqueue(p *Process, si int, v T, items []T) int {
	f := frameFor[poolFrame[T]](p)
	f.wp, f.si, f.vi, f.one[0], f.items = wp, int32(si), int32(si), v, items
	if items == nil {
		f.items = f.one[:]
	}
	return wp.section(p, f, wp.locks[si:si+1])
}

// dequeue takes up to want elements from shard si, or steals from
// shard vi when that differs, in one section and returns got with them
// appended. It looks before it locks: an empty pass changes nothing, so
// a shard whose advisory lock-free occupancy (what park trusts) reads
// zero is counted in EmptyRejects and left alone.
func (wp *WorkPool[T]) dequeue(p *Process, si, vi, want int, got []T) []T {
	if vi == si && wp.rings[si].lenWith(p) == 0 {
		wp.emptyReads[si].Add(1)
		return got
	}
	f := frameFor[poolFrame[T]](p)
	f.wp, f.si, f.vi, f.want = wp, int32(si), int32(vi), int32(want)
	f.out.init(&wp.rings[si], want)
	locks := wp.locks[si : si+1]
	if vi != si {
		// Canonical acquisition order, as the transaction layer sorts.
		pair := [2]*Lock{wp.locks[si], wp.locks[vi]}
		slices.SortFunc(pair[:], byID)
		locks = pair[:]
	}
	n := min(wp.section(p, f, locks), want)
	for i := 0; i < n; i++ {
		got = append(got, f.out.get(p, &wp.rings[si], i))
	}
	return got
}

// section runs f under locks within the budget of its kind, settles
// the counters from the number of elements it moved, and returns it.
func (wp *WorkPool[T]) section(p *Process, f *poolFrame[T], locks []*Lock) int {
	budget := wp.opBudget
	if f.vi != f.si {
		budget = wp.stealBudget
	} else if max(len(f.items), int(f.want)) > 1 {
		budget = wp.batchBudget
	}
	wp.m.run(context.Background(), p, locks, budget, f)
	n := int(f.moved.Load())
	ring, victim := &wp.rings[f.si], &wp.rings[f.vi]
	switch {
	case f.items != nil:
		ring.enqs.Add(uint64(n))
		if n < len(f.items) {
			ring.fulls.Add(1)
		}
		if n > 0 {
			wp.wakeSleeper()
		}
	case f.vi == f.si:
		ring.deqs.Add(uint64(n))
		if n < int(f.want) {
			ring.empties.Add(1)
		}
	case n == 0:
		victim.empties.Add(1)
	default:
		victim.deqs.Add(1)
		wp.steals[f.si].Add(uint64(n))
	}
	return n
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
	return wp.enqueueFrom(p, wp.rr.Add(1)-1, v, nil) > 0
}

// enqueueFrom probes the shards in order from start until one takes
// items (v alone when items is nil), and returns the number it took.
func (wp *WorkPool[T]) enqueueFrom(p *Process, start uint64, v T, items []T) (moved int) {
	for j := 0; j < len(wp.rings) && moved == 0; j++ {
		moved = wp.enqueue(p, int((start+uint64(j))&wp.shardMask), v, items)
	}
	return moved
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
	var one [1]T
	home := int((wp.dq.Add(1) - 1) & wp.shardMask)
	if got := wp.dequeue(p, home, home, 1, one[:0]); len(got) > 0 {
		return got[0], true
	}
	// Home is empty: raid the fullest other shard by its advisory
	// lock-free occupancy; the steal re-checks under both locks.
	victim, best := -1, 0
	for s := range wp.rings {
		if s == home {
			continue
		}
		if n := wp.rings[s].lenWith(p); n > best {
			victim, best = s, n
		}
	}
	if victim >= 0 {
		if got := wp.dequeue(p, home, victim, 1, one[:0]); len(got) > 0 {
			return got[0], true
		}
	}
	return one[0], false
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
	return wp.enqueueFrom(p, key, v, nil) > 0
}

// EnqueueKeyed submits v with TryEnqueueKeyed's shard affinity, waiting
// while every shard is full under the same retry/cancellation contract
// as Enqueue.
func (wp *WorkPool[T]) EnqueueKeyed(ctx context.Context, key uint64, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.m.await(ctx, wp.noun, "full", func() bool { return wp.enqueueFrom(p, key, v, nil) > 0 }, nil)
}

// Enqueue submits v, waiting while every shard is full: failed passes
// apply the manager's RetryPolicy and the wait ends with an error
// wrapping ErrCanceled once ctx is done. A nil return means v was
// enqueued exactly once.
func (wp *WorkPool[T]) Enqueue(ctx context.Context, v T) error {
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	return wp.m.await(ctx, wp.noun, "full", func() bool { return wp.enqueueFrom(p, wp.rr.Add(1)-1, v, nil) > 0 }, nil)
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
	items := append([]T(nil), vs...) // frames outlive the call (see mapframe.go)
	p := wp.m.Acquire()
	defer wp.m.Release(p)
	done := 0
	for done < len(items) {
		chunk := items[done:min(done+wp.batch, len(items))]
		err := wp.m.await(ctx, wp.noun, "full", func() bool {
			moved := wp.enqueueFrom(p, wp.rr.Add(1)-1, chunk[0], chunk)
			done += moved
			return moved > 0
		}, nil)
		if err != nil {
			return done, fmt.Errorf("%d of %d enqueued: %w", done, len(items), err)
		}
	}
	return done, nil
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
				si := int((start + uint64(j)) & wp.shardMask)
				got = wp.dequeue(p, si, si, want, got)
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
			Enqueues:     ring.enqs.Load(),
			Dequeues:     ring.deqs.Load(),
			Steals:       wp.steals[s].Load(),
			FullRejects:  ring.fulls.Load(),
			EmptyRejects: ring.empties.Load() + wp.emptyReads[s].Load(),
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
