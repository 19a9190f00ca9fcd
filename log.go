package wflocks

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"wflocks/internal/idem"
	"wflocks/internal/stats"
	"wflocks/internal/table"
)

// Log is a generic segmented append-only broadcast log: producers
// append once, every attached Cursor reads the full stream
// independently, and fully-consumed segments are reclaimed by trim.
// Where Queue and WorkPool are consume-once, Log is the fan-out shape —
// pub/sub, replay, pipeline broadcast — and it is built from the same
// parts: each shard is a qring whose tickets, slots and per-slot
// sequence numbers live in typed cells, guarded by one wait-free lock.
//
// Appends are single-lock critical sections on the shard lock
// (batched via AppendBatch, so one acquisition moves up to the
// WithLogBatch size). Cursor positions live in typed cells too, and
// every write to a position — cursor advance (Next/NextBatch), attach,
// close, and TrimTo's forced clamp — runs as a two-lock critical
// section over {shard lock, cursor lock}, the paper's multi-lock
// acquisition at L=2. That is the property the whole structure leans
// on: reclamation reads the minimum cursor position under the shard
// lock, and because a position can only move under that same lock, a
// consumer stalled mid-advance (a preempted vCPU, a GC pause) is
// *helped past its advance* by the next acquirer — trim sees a
// quiescent minimum and proceeds. A lagging subscriber can hold
// retention back (that is the contract); a *stalled* one can never
// wedge trim, appends, or other readers.
//
// Capacity is fixed (per shard, rounded to a power of two): growing a
// ring would unbound the worst-case critical section, voiding the T
// bound. When a shard fills, the append critical section itself
// reclaims up to one fully-consumed segment (WithLogSegment) before
// giving up, so steady-state producers ride behind the slowest cursor
// without explicit Trim calls; TrimTo bounds retention by force,
// advancing lagging cursors and counting what they lost as drops.
//
// Entries are totally ordered within a shard, not across shards —
// AppendKeyed pins a key to one shard, making per-key order a hard
// guarantee (unlike WorkPool's TryEnqueueKeyed, keyed appends never
// fall over to another shard: affinity here is an ordering contract,
// not a locality hint). Construct with NewLog (integer elements) or
// NewLogOf (explicit codec); the manager needs WithMaxLocks(2) and a
// WithMaxCriticalSteps bound covering LogCriticalSteps. All methods
// are safe for concurrent use.
type Log[T any] struct {
	m *Manager

	rings []qring[T]
	// locks[s] guards rings[s] and every pos[s]/active[s]; locks[s:s+1]
	// is shard s's single-lock set for the runner.
	locks []*Lock

	shardMask uint64
	segment   int
	segMask   uint64
	batch     int

	slots []*logSlot[T]

	opBudget    int // single-item or admin (trim/attach/clamp) section
	batchBudget int // batch-of-`batch` critical section

	// rr spreads un-keyed appends; a plain atomic, not a cell — it only
	// routes traffic, so it needs no critical-section atomicity.
	rr atomic.Uint64

	// mu guards the Go-side consumer-slot bookkeeping (claimed flags).
	// Cell-resident cursor state is never touched under it.
	mu sync.Mutex
}

// logSlot is one consumer slot: the cell-resident cursor state for a
// (possibly re-attached) Cursor. The slot pool is fixed at
// construction (WithLogConsumers) because trim critical sections scan
// every slot — a dynamic consumer set would unbound the budget.
type logSlot[T any] struct {
	lock    *Lock
	active  []*Cell[uint64] // per shard: 1 while a cursor is attached
	pos     []*Cell[uint64] // per shard: next read ticket
	reads   atomic.Uint64   // delivered entries (all shards), bumped by owners
	drops   *Cell[uint64]   // entries lost to TrimTo clamps
	pairs   [][]*Lock       // per shard: {shard lock, slot lock} in ID order
	claimed bool            // under Log.mu
}

// Cursor is one subscriber's handle onto a Log: an independent read
// position per shard, advanced by Next/TryNext/NextBatch. A Cursor may
// be shared by goroutines (each entry is then delivered to exactly one
// of them); use one Cursor per logical subscriber. Close releases the
// slot for a future NewCursor.
type Cursor[T any] struct {
	lg     *Log[T]
	slot   *logSlot[T]
	idx    int
	rr     atomic.Uint64
	closed atomic.Bool
}

// Default log shape: 8 shards, 1024 slots total, 64-entry segments,
// batches of 8, 8 consumer slots.
const (
	defaultLogShards    = 8
	defaultLogCapacity  = 1024
	defaultLogSegment   = 64
	defaultLogBatch     = 8
	defaultLogConsumers = 8
)

// LogOption configures a Log at construction.
type LogOption func(*logConfig) error

type logConfig struct {
	shards    int
	capacity  int
	segment   int
	batch     int
	consumers int
}

// WithLogShards sets the number of sub-rings, rounded up to a power of
// two (default 8). More shards mean fewer producers colliding on any
// one lock; the cost is that total order holds only within a shard.
func WithLogShards(n int) LogOption {
	return func(c *logConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithLogShards: shard count must be positive, got %d", n)
		}
		c.shards = table.CeilPow2(n)
		return nil
	}
}

// WithLogCapacity sets the log's total slot count (default 1024),
// split evenly across shards with each share rounded up to a power of
// two — so the effective capacity, reported by Cap, may exceed the
// request. Capacity bounds how far producers can run ahead of the
// slowest attached cursor.
func WithLogCapacity(n int) LogOption {
	return func(c *logConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithLogCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = n
		return nil
	}
}

// WithLogSegment sets the reclamation granularity in entries, rounded
// up to a power of two (default 64): trim frees whole segments, and an
// append or trim critical section frees at most one segment, so the
// segment size is a budget term in LogCriticalSteps. It must not
// exceed the per-shard capacity.
func WithLogSegment(n int) LogOption {
	return func(c *logConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithLogSegment: segment must be positive, got %d", n)
		}
		c.segment = table.CeilPow2(n)
		return nil
	}
}

// WithLogBatch sets the largest number of entries one AppendBatch or
// NextBatch critical section moves (default 8), with the same budget
// trade-off as WithQueueBatch.
func WithLogBatch(n int) LogOption {
	return func(c *logConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithLogBatch: batch must be positive, got %d", n)
		}
		c.batch = n
		return nil
	}
}

// WithLogConsumers sets the consumer-slot pool size (default 8): the
// maximum number of concurrently attached cursors. The pool is fixed
// because trim critical sections scan every slot for the minimum
// position — the slot count is a budget term in LogCriticalSteps.
func WithLogConsumers(n int) LogOption {
	return func(c *logConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithLogConsumers: consumer count must be positive, got %d", n)
		}
		c.consumers = n
		return nil
	}
}

// Per-item and fixed overheads of a log critical section, in
// single-word cell operations. A worst-case item is an append: ticket
// reads (2), the slot write (valueWords), the sequence write (1), the
// ticket write (1) and 2 spare (counters settle after the section);
// cursor advances cost the element read plus the result write
// (valueWords each) with the position write once per section. The
// fixed tail covers the min-cursor scan's tail read, one reclaim's
// head write, and headroom.
const (
	logItemOverhead  = 8
	logFixedOverhead = 16
)

// LogCriticalSteps returns the WithMaxCriticalSteps bound T a Manager
// needs to host a Log whose elements are valueWords words wide, whose
// batch operations move up to batch entries per critical section
// (WithLogBatch), with consumers cursor slots (WithLogConsumers) and
// segment-entry reclamation granules (WithLogSegment). The three
// non-batch terms are what distinguish the log's budget from
// QueueCriticalSteps: a trim — standalone or riding inside a full
// append — reads every slot's position (2 ops per consumer) and frees
// at most one segment (one sequence write per entry).
func LogCriticalSteps(valueWords, batch, consumers, segment int) int {
	if batch < 1 {
		batch = 1
	}
	if consumers < 1 {
		consumers = 1
	}
	if segment < 1 {
		segment = 1
	}
	return batch*(2*valueWords+logItemOverhead) + 2*consumers + segment + logFixedOverhead
}

// NewLog creates a log of integer elements, the common case, using the
// built-in single-word codec. See NewLogOf for arbitrary types.
func NewLog[T Integer](m *Manager, opts ...LogOption) (*Log[T], error) {
	return NewLogOf[T](m, IntegerCodec[T](), opts...)
}

// NewLogOf creates a log whose elements are encoded by the given
// codec. The manager must be configured with WithMaxLocks(2) or more —
// cursor advance and trim clamp are two-lock critical sections
// regardless of the shard count — and a WithMaxCriticalSteps bound
// covering LogCriticalSteps; either shortfall is reported as an error.
func NewLogOf[T any](m *Manager, vc Codec[T], opts ...LogOption) (*Log[T], error) {
	cfg := logConfig{
		shards:    defaultLogShards,
		capacity:  defaultLogCapacity,
		segment:   defaultLogSegment,
		batch:     defaultLogBatch,
		consumers: defaultLogConsumers,
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if m.cfg.maxLocks < 2 {
		return nil, fmt.Errorf(
			"wflocks: NewLogOf: cursor advance is a two-lock critical section; configure the manager with WithMaxLocks(2) or more")
	}
	perShard := table.CeilPow2((cfg.capacity + cfg.shards - 1) / cfg.shards)
	if cfg.segment > perShard {
		return nil, fmt.Errorf(
			"wflocks: NewLogOf: segment %d exceeds the per-shard capacity %d (capacity %d over %d shards)",
			cfg.segment, perShard, cfg.capacity, cfg.shards)
	}
	batchBudget := LogCriticalSteps(vc.Words(), cfg.batch, cfg.consumers, cfg.segment)
	if batchBudget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: NewLogOf: batch %d, %d consumers, segment %d with %d-word elements needs "+
				"WithMaxCriticalSteps(%d), manager has %d (see LogCriticalSteps)",
			cfg.batch, cfg.consumers, cfg.segment, vc.Words(), batchBudget, m.cfg.maxCritical)
	}
	l := &Log[T]{
		m:           m,
		rings:       make([]qring[T], cfg.shards),
		locks:       make([]*Lock, cfg.shards),
		shardMask:   uint64(cfg.shards - 1),
		segment:     cfg.segment,
		segMask:     uint64(cfg.segment - 1),
		batch:       cfg.batch,
		slots:       make([]*logSlot[T], cfg.consumers),
		opBudget:    LogCriticalSteps(vc.Words(), 1, cfg.consumers, cfg.segment),
		batchBudget: batchBudget,
	}
	for s := range l.rings {
		l.rings[s].init(vc, perShard)
		l.locks[s] = m.NewLock()
	}
	for i := range l.slots {
		cs := &logSlot[T]{
			lock:   m.NewLock(),
			active: make([]*Cell[uint64], cfg.shards),
			pos:    make([]*Cell[uint64], cfg.shards),
			drops:  NewCell(uint64(0)),
			pairs:  make([][]*Lock, cfg.shards),
		}
		for s := range l.rings {
			cs.active[s] = NewCell(uint64(0))
			cs.pos[s] = NewCell(uint64(0))
			cs.pairs[s] = []*Lock{l.locks[s], cs.lock}
			slices.SortFunc(cs.pairs[s], byID)
		}
		l.slots[i] = cs
	}
	return l, nil
}

// Shards reports the shard count (after power-of-two rounding).
func (l *Log[T]) Shards() int { return len(l.rings) }

// Cap reports the total slot count after per-shard rounding; it is at
// least the WithLogCapacity request.
func (l *Log[T]) Cap() int { return len(l.rings) * l.rings[0].capacity }

// Segment reports the reclamation granularity in entries.
func (l *Log[T]) Segment() int { return l.segment }

// reclaimSegment frees at most one fully-consumed segment of shard s
// inside a critical section, never freeing past tail-retain, and
// returns the number of entries freed. The reclamation point is the
// minimum over the tail and every attached slot's position, rounded
// down to a segment boundary — so the head stays segment-aligned. The
// scan is safe under the shard lock alone: every position write holds
// this same lock, and acquisition helps any stalled writer's section
// to completion first, so the minimum read here is always quiescent.
func (l *Log[T]) reclaimSegment(tx *Tx, s int, retain uint64) int {
	r := &l.rings[s]
	t := Get(tx, r.tail)
	min := uint64(0)
	if t > retain {
		min = t - retain
	}
	for _, cs := range l.slots {
		if Get(tx, cs.active[s]) != 0 {
			if p := Get(tx, cs.pos[s]); p < min {
				min = p
			}
		}
	}
	return r.reclaim(tx, min&^l.segMask, l.segment)
}

// appendItems appends items to shard s inside a section, reclaiming at
// most one consumed segment (the budget allows one) when the ring
// fills, and returns the numbers appended and reclaimed. It stops at
// the first item that does not fit even then.
func (l *Log[T]) appendItems(tx *Tx, s int, items []T) (moved, freed int) {
	r := &l.rings[s]
	reclaimed := false
	for _, v := range items {
		if !r.enqOne(tx, v) {
			if reclaimed {
				break
			}
			reclaimed, freed = true, l.reclaimSegment(tx, s, 0)
			if !r.enqOne(tx, v) {
				break
			}
		}
		moved++
	}
	return moved, freed
}

// logFrame is a log section in frame form (see mapframe.go): with a
// nil slot, an append of items to shard s; else an advance of slot's
// cursor over up to want entries of shard s.
type logFrame[T any] struct {
	lg    *Log[T]
	slot  *logSlot[T]
	items []T
	one   [1]T // items of a single append
	out   handout[T]
	s     int32
	want  int32

	// Results: entries appended or delivered, entries reclaimed, and
	// whether an advance found the shard drained.
	moved, freed atomic.Uint32
	idle         atomic.Bool
}

// RunThunk implements idem.Thunk.
func (f *logFrame[T]) RunThunk(r *idem.Run) {
	tx := newTx(r)
	s := int(f.s)
	ring := &f.lg.rings[s]
	if f.slot == nil {
		moved, freed := f.lg.appendItems(tx, s, f.items)
		f.moved.Store(uint32(moved))
		f.freed.Store(uint32(freed))
		return
	}
	if Get(tx, f.slot.active[s]) == 0 {
		return
	}
	pos := Get(tx, f.slot.pos[s])
	t := Get(tx, ring.tail)
	n := 0
	for ; n < int(f.want) && pos < t; n++ {
		f.out.put(tx, ring, n, Get(tx, ring.vals[int(pos&ring.mask)]))
		pos++
	}
	if n == 0 {
		f.idle.Store(true)
		return
	}
	Put(tx, f.slot.pos[s], pos)
	f.moved.Store(uint32(n))
}

// ExpectedOps implements idem.Sized, sizing the log's first segment: an
// append's enqueue or a read's cursor step is 6 operations and one per
// element word, and a multi-word read writes its result cell too.
func (f *logFrame[T]) ExpectedOps() int {
	return max(len(f.items), int(f.want)) * (6 + 2*f.lg.rings[0].vc.Words())
}

// section runs f on locks, with the batch budget when it moves more
// than one entry, settles the counters from its results, and returns
// the number of entries moved.
func (l *Log[T]) section(p *Process, f *logFrame[T], locks []*Lock) int {
	budget := l.opBudget
	if max(len(f.items), int(f.want)) > 1 {
		budget = l.batchBudget
	}
	l.m.run(context.Background(), p, locks, budget, f)
	n, ring := int(f.moved.Load()), &l.rings[f.s]
	if f.slot == nil {
		ring.enqs.Add(uint64(n))
		ring.deqs.Add(uint64(f.freed.Load()))
		if n < len(f.items) {
			ring.fulls.Add(1)
		}
	} else {
		f.slot.reads.Add(uint64(n))
		if f.idle.Load() {
			ring.empties.Add(1)
		}
	}
	return n
}

// appendShard appends items — v alone when items is nil — to shard s
// with one acquisition and returns the number appended. The frame
// carries the entries as plain fields, so it serves every codec.
func (l *Log[T]) appendShard(p *Process, s int, v T, items []T) int {
	f := frameFor[logFrame[T]](p)
	f.lg, f.s, f.one[0], f.items = l, int32(s), v, items
	if items == nil {
		f.items = f.one[:]
	}
	return l.section(p, f, l.locks[s:s+1])
}

// nextShard delivers up to want unread entries of shard s to c in one
// two-lock critical section and returns got with them appended.
func (c *Cursor[T]) nextShard(p *Process, s, want int, got []T) []T {
	l, ring := c.lg, &c.lg.rings[s]
	f := frameFor[logFrame[T]](p)
	f.lg, f.slot, f.s, f.want = l, c.slot, int32(s), int32(want)
	f.out.init(ring, want)
	n := l.section(p, f, c.slot.pairs[s])
	for i := 0; i < n; i++ {
		got = append(got, f.out.get(p, ring, i))
	}
	return got
}

// appendFrom probes each shard once, starting at start, until one
// takes items (v alone when items is nil), and returns the number it
// took.
func (l *Log[T]) appendFrom(p *Process, start uint64, v T, items []T) (moved int) {
	for j := 0; j < len(l.rings) && moved == 0; j++ {
		moved = l.appendShard(p, int((start+uint64(j))&l.shardMask), v, items)
	}
	return moved
}

// TryAppend appends v to the next shard in round-robin order, probing
// each shard at most once; it reports false only when every shard
// stayed full after in-section reclamation — that is, the slowest
// cursor (or the oldest unread entry, if no cursor is attached) is
// within one segment of the appender on every shard.
func (l *Log[T]) TryAppend(v T) bool {
	p := l.m.Acquire()
	defer l.m.Release(p)
	return l.appendFrom(p, l.rr.Add(1)-1, v, nil) > 0
}

// TryAppendKeyed appends v to the shard selected by key's low bits,
// and only that shard: unlike WorkPool's keyed submit, there is no
// fallover, because landing all of a key's entries on one shard is
// exactly what makes per-key order a guarantee (entries are totally
// ordered within a shard). False means that shard is full. Callers
// needing a stable spread should pass a hash of the key: only the low
// bits select the shard.
func (l *Log[T]) TryAppendKeyed(key uint64, v T) bool {
	p := l.m.Acquire()
	defer l.m.Release(p)
	return l.appendShard(p, int(key&l.shardMask), v, nil) > 0
}

// Append appends v, waiting while the log is full under the manager's
// RetryPolicy; the wait ends with an error wrapping ErrCanceled once
// ctx is done. A nil return means v was appended exactly once.
func (l *Log[T]) Append(ctx context.Context, v T) error {
	p := l.m.Acquire()
	defer l.m.Release(p)
	return l.m.await(ctx, "log", "full", func() bool { return l.appendFrom(p, l.rr.Add(1)-1, v, nil) > 0 }, nil)
}

// AppendKeyed appends v with TryAppendKeyed's strict shard affinity,
// waiting while that shard is full under the Append retry contract.
func (l *Log[T]) AppendKeyed(ctx context.Context, key uint64, v T) error {
	p := l.m.Acquire()
	defer l.m.Release(p)
	s := int(key & l.shardMask)
	return l.m.await(ctx, "log shard", "full", func() bool { return l.appendShard(p, s, v, nil) > 0 }, nil)
}

// AppendBatch appends vs, amortizing lock acquisitions: entries are
// moved in chunks of up to the WithLogBatch size, each chunk one
// critical section on one round-robin shard (chunks are atomic —
// cursors see a chunk's entries appear together — and a chunk's
// entries are contiguous in its shard's order; the batch as a whole
// spreads across shards). When every shard is full it waits under the
// Append retry contract. It returns the number appended, which is
// len(vs) unless ctx was done first.
func (l *Log[T]) AppendBatch(ctx context.Context, vs []T) (int, error) {
	items := append([]T(nil), vs...) // frames outlive the call (see mapframe.go)
	p := l.m.Acquire()
	defer l.m.Release(p)
	done := 0
	for done < len(items) {
		chunk := items[done:min(done+l.batch, len(items))]
		err := l.m.await(ctx, "log", "full", func() bool {
			moved := l.appendFrom(p, l.rr.Add(1)-1, chunk[0], chunk)
			done += moved
			return moved > 0
		}, nil)
		if err != nil {
			return done, fmt.Errorf("%d of %d appended: %w", done, len(items), err)
		}
	}
	return done, nil
}

// Trim reclaims every fully-consumed segment: on each shard, segments
// below the minimum attached-cursor position (or below the tail, when
// no cursor is attached — an unsubscribed log retains nothing) are
// freed, one segment per critical section so every section stays
// within the trim budget. It returns the number of entries reclaimed.
// Producers normally never need to call Trim — append reclaims
// in-section when full — but periodic trims keep Len (and the window a
// new NewCursor replays) small.
func (l *Log[T]) Trim() int {
	return l.trim(0, false)
}

// TrimTo bounds retention: it reclaims until each shard retains at
// most retain entries, force-advancing any cursor lagging further than
// that — each clamp is a two-lock {shard, cursor} critical section,
// and the entries skipped are counted in the cursor's Drops. It
// returns the number of entries reclaimed. Use it to put a hard bound
// on the window a slow (or abandoned-without-Close) subscriber can pin.
func (l *Log[T]) TrimTo(retain int) int {
	if retain < 0 {
		retain = 0
	}
	return l.trim(uint64(retain), true)
}

func (l *Log[T]) trim(retain uint64, clamp bool) int {
	p := l.m.Acquire()
	defer l.m.Release(p)
	total := 0
	for s := range l.rings {
		if clamp {
			ring := &l.rings[s]
			for _, cs := range l.slots {
				cs := cs
				l.m.run(context.Background(), p, cs.pairs[s], l.opBudget, txFrame(func(tx *Tx) {
					if Get(tx, cs.active[s]) == 0 {
						return
					}
					t := Get(tx, ring.tail)
					target := uint64(0)
					if t > retain {
						target = t - retain
					}
					pos := Get(tx, cs.pos[s])
					if pos < target {
						Put(tx, cs.drops, Get(tx, cs.drops)+(target-pos))
						Put(tx, cs.pos[s], target)
					}
				}))
			}
		}
		for {
			freed := NewCell(uint64(0))
			l.m.run(context.Background(), p, l.locks[s:s+1], l.opBudget, txFrame(func(tx *Tx) {
				Put(tx, freed, uint64(l.reclaimSegment(tx, s, retain)))
			}))
			n := int(freed.Get(p))
			l.rings[s].deqs.Add(uint64(n))
			total += n
			if n < l.segment {
				break
			}
		}
	}
	return total
}

// Len reports the number of retained entries: the sum of the shards'
// lock-free occupancy reads, with Queue.Len's consistency caveat.
func (l *Log[T]) Len() int {
	p := l.m.Acquire()
	defer l.m.Release(p)
	n := 0
	for s := range l.rings {
		n += l.rings[s].lenWith(p)
	}
	return n
}

// NewCursor attaches a subscriber at the oldest retained entry of
// every shard, replaying the retained window before new appends. It
// claims one of the WithLogConsumers slots and returns an error
// wrapping ErrLogConsumers when all slots are attached (Close a cursor
// to release its slot).
func (l *Log[T]) NewCursor() (*Cursor[T], error) {
	return l.newCursor(false)
}

// NewTailCursor attaches a subscriber at the current tail of every
// shard: it observes only entries appended after the attach, the
// live-subscription shape.
func (l *Log[T]) NewTailCursor() (*Cursor[T], error) {
	return l.newCursor(true)
}

func (l *Log[T]) newCursor(atTail bool) (*Cursor[T], error) {
	l.mu.Lock()
	var slot *logSlot[T]
	idx := -1
	for i, cs := range l.slots {
		if !cs.claimed {
			cs.claimed = true
			slot, idx = cs, i
			break
		}
	}
	l.mu.Unlock()
	if slot == nil {
		return nil, fmt.Errorf("%w: all %d slots attached (WithLogConsumers)", ErrLogConsumers, len(l.slots))
	}
	p := l.m.Acquire()
	defer l.m.Release(p)
	slot.reads.Store(0)
	for s := range l.rings {
		s := s
		ring := &l.rings[s]
		l.m.run(context.Background(), p, slot.pairs[s], l.opBudget, txFrame(func(tx *Tx) {
			if s == 0 {
				Put(tx, slot.drops, 0)
			}
			start := Get(tx, ring.head)
			if atTail {
				start = Get(tx, ring.tail)
			}
			Put(tx, slot.pos[s], start)
			Put(tx, slot.active[s], 1)
		}))
	}
	return &Cursor[T]{lg: l, slot: slot, idx: idx}, nil
}

// Close detaches the cursor — trim stops accounting for its positions
// — and releases its slot for a future NewCursor. Closing an already
// closed cursor is a no-op. Always Close abandoned cursors: an
// attached cursor that is never advanced pins retention until a TrimTo
// clamps past it.
func (c *Cursor[T]) Close() {
	if c.closed.Swap(true) {
		return
	}
	l := c.lg
	slot := c.slot
	p := l.m.Acquire()
	defer l.m.Release(p)
	for s := range l.rings {
		s := s
		l.m.run(context.Background(), p, slot.pairs[s], l.opBudget, txFrame(func(tx *Tx) {
			Put(tx, slot.active[s], 0)
		}))
	}
	l.mu.Lock()
	slot.claimed = false
	l.mu.Unlock()
}

// TryNext delivers the next unread entry, reporting false when every
// shard is drained (or the cursor is closed). Shards are scanned in
// round-robin order with a lock-free position/tail check first, so a
// drained log is rejected without touching any lock. Entries from one
// shard arrive in that shard's append order; entries from different
// shards interleave.
func (c *Cursor[T]) TryNext() (T, bool) {
	var zero T
	if c.closed.Load() {
		return zero, false
	}
	l := c.lg
	p := l.m.Acquire()
	defer l.m.Release(p)
	return c.tryNextWith(p)
}

func (c *Cursor[T]) tryNextWith(p *Process) (T, bool) {
	var one [1]T
	got := c.pass(p, 1, one[:0])
	return one[0], len(got) > 0
}

// pass scans the shards once in round-robin order and appends up to
// max-len(got) entries to got, in chunks of at most WithLogBatch. A
// drained shard is skipped on a lock-free position/tail check; the
// section re-checks under the locks.
func (c *Cursor[T]) pass(p *Process, max int, got []T) []T {
	l := c.lg
	start := c.rr.Add(1) - 1
	for j := 0; j < len(l.rings) && len(got) < max; j++ {
		s := int((start + uint64(j)) & l.shardMask)
		if c.slot.pos[s].Get(p) < l.rings[s].tail.Get(p) {
			got = c.nextShard(p, s, min(max-len(got), l.batch), got)
		}
	}
	return got
}

// Next delivers the next unread entry, waiting while the log is
// drained: failed passes apply the manager's RetryPolicy, and the wait
// ends with an error wrapping ErrCanceled once ctx is done, or
// ErrCursorClosed if the cursor is closed while waiting.
func (c *Cursor[T]) Next(ctx context.Context) (T, error) {
	l := c.lg
	p := l.m.Acquire()
	defer l.m.Release(p)
	var v T
	closed := false
	err := l.m.await(ctx, "log", "drained", func() (ok bool) {
		if closed = c.closed.Load(); closed {
			return true
		}
		v, ok = c.tryNextWith(p)
		return ok
	}, nil)
	if closed {
		return v, ErrCursorClosed
	}
	return v, err
}

// NextBatch delivers up to max unread entries, waiting only until the
// first is available: shards are scanned round-robin and drained in
// WithLogBatch-sized atomic chunks until the scan comes up empty or
// max is reached. Entries within a chunk preserve their shard's append
// order; chunks from different shards interleave. It returns an error
// wrapping ErrCanceled — with whatever was delivered — once ctx is
// done while still empty-handed, or ErrCursorClosed on a closed
// cursor.
func (c *Cursor[T]) NextBatch(ctx context.Context, max int) ([]T, error) {
	if max <= 0 {
		return nil, nil
	}
	l := c.lg
	p := l.m.Acquire()
	defer l.m.Release(p)
	var got []T
	closed := false
	err := l.m.await(ctx, "log", "drained", func() bool {
		for len(got) < max {
			if closed = c.closed.Load(); closed {
				return true
			}
			before := len(got)
			if got = c.pass(p, max, got); len(got) == before {
				break
			}
		}
		return len(got) > 0
	}, nil)
	if closed {
		return got, ErrCursorClosed
	}
	return got, err
}

// Slot reports the consumer-slot index this cursor occupies: its row
// in Stats().Consumers.
func (c *Cursor[T]) Slot() int { return c.idx }

// Lag reports the number of appended entries this cursor has not yet
// read: the sum over shards of tail minus position, read lock-free
// with the usual skew caveat. A closed cursor reports 0.
func (c *Cursor[T]) Lag() int {
	if c.closed.Load() {
		return 0
	}
	l := c.lg
	p := l.m.Acquire()
	defer l.m.Release(p)
	return l.slotLag(p, c.slot)
}

func (l *Log[T]) slotLag(p *Process, cs *logSlot[T]) int {
	lag := 0
	for s := range l.rings {
		if cs.active[s].Get(p) == 0 {
			continue
		}
		t := l.rings[s].tail.Get(p)
		pos := cs.pos[s].Get(p)
		if t > pos {
			lag += int(t - pos)
		}
	}
	return lag
}

// LogShardStats is one shard's view in LogStats.
type LogShardStats struct {
	// Lock carries the shard lock's contention counters.
	Lock LockStats
	// Appends counts completed appends to this shard; Trimmed counts
	// entries reclaimed from it (by trim sections or in-append
	// reclamation).
	Appends, Trimmed uint64
	// FullRejects counts append attempts that found the shard full even
	// after in-section reclamation; IdlePolls counts cursor-advance
	// sections that found nothing unread (lock-free skips not
	// included).
	FullRejects, IdlePolls uint64
	// Len is the shard's retained-entry count.
	Len int
}

// LogConsumerStats is one consumer slot's view in LogStats.
type LogConsumerStats struct {
	// Slot is the pool index; Attached reports whether a cursor
	// currently occupies it.
	Slot     int
	Attached bool
	// Reads counts entries delivered through this slot since its last
	// attach; Drops counts entries a TrimTo clamp skipped past.
	Reads, Drops uint64
	// Lag is the slot's unread backlog (0 when detached).
	Lag int
}

// LogStats is a point-in-time view of the log's traffic, exact at
// quiescence (counters are settled after each critical section).
type LogStats struct {
	// Shards holds one entry per shard; Consumers one per slot.
	Shards    []LogShardStats
	Consumers []LogConsumerStats
	// Appends, Trimmed, FullRejects and IdlePolls are the summed shard
	// counters; Reads and Drops the summed consumer counters.
	Appends, Trimmed, FullRejects, IdlePolls uint64
	Reads, Drops                             uint64
	// Len is the summed retained-entry count; MaxLag the largest
	// attached cursor's backlog.
	Len    int
	MaxLag int
	// Balance is Jain's fairness index over per-shard append counts;
	// MaxOverMean the hottest shard's appends over the mean (see
	// WorkPoolStats).
	Balance     float64
	MaxOverMean float64
}

// Stats snapshots the log's per-shard and per-consumer counters.
func (l *Log[T]) Stats() LogStats {
	p := l.m.Acquire()
	defer l.m.Release(p)
	ls := LogStats{
		Shards:    make([]LogShardStats, len(l.rings)),
		Consumers: make([]LogConsumerStats, len(l.slots)),
	}
	enqs := make([]uint64, len(l.rings))
	for s := range l.rings {
		ring := &l.rings[s]
		st := LogShardStats{
			Lock:        l.locks[s].stats(),
			Appends:     ring.enqs.Load(),
			Trimmed:     ring.deqs.Load(),
			FullRejects: ring.fulls.Load(),
			IdlePolls:   ring.empties.Load(),
			Len:         ring.lenWith(p),
		}
		ls.Shards[s] = st
		ls.Appends += st.Appends
		ls.Trimmed += st.Trimmed
		ls.FullRejects += st.FullRejects
		ls.IdlePolls += st.IdlePolls
		ls.Len += st.Len
		enqs[s] = st.Appends
	}
	for i, cs := range l.slots {
		attached := false
		for s := range l.rings {
			if cs.active[s].Get(p) != 0 {
				attached = true
				break
			}
		}
		st := LogConsumerStats{
			Slot:     i,
			Attached: attached,
			Reads:    cs.reads.Load(),
			Drops:    cs.drops.Get(p),
		}
		if attached {
			st.Lag = l.slotLag(p, cs)
		}
		ls.Consumers[i] = st
		ls.Reads += st.Reads
		ls.Drops += st.Drops
		if st.Lag > ls.MaxLag {
			ls.MaxLag = st.Lag
		}
	}
	d := stats.NewShardDist(enqs)
	ls.Balance = d.Jain
	ls.MaxOverMean = d.MaxOverMean
	return ls
}
