package wflocks

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync/atomic"
	"time"

	"wflocks/internal/env"
	"wflocks/internal/stats"
	"wflocks/internal/table"
)

// Cache is a generic sharded LRU cache with optional TTL, built on the
// manager's wait-free locks and the shared shard-table engine
// (internal/table). Keys hash to one of a power-of-two number of
// shards; each shard owns one Lock guarding an engine bucket region
// plus an intrusive doubly-linked LRU list stored entirely in typed
// cells (prev/next bucket indices, head/tail anchors, expiry
// deadlines). Because the list lives in cells and every access goes
// through the idempotence layer, the recency reordering and eviction
// surgery inside a critical section can be re-executed by helpers
// without double-applying — this is the subsystem whose critical
// sections do real pointer surgery rather than flat bucket writes.
//
// Eviction happens inside the critical section: a Put into a full shard
// unlinks the LRU tail, tombstones its bucket and reuses it, all in the
// same atomic step as the insert, so the cache never exceeds its
// capacity and a stalled evictor can never wedge the shard — helpers
// finish the surgery. Each shard holds a fixed power-of-two number of
// buckets (its capacity share); there is no rehashing, which is what
// keeps the worst-case critical section T bounded (CacheCriticalSteps
// computes the bound a hosting Manager needs).
//
// With WithTTL, every entry carries an absolute expiry deadline.
// Expiry is lazy: a Get that finds an expired entry removes it (counted
// as an expiration and a miss) instead of returning it. The deadline is
// sampled once, outside the critical section, so the section body stays
// deterministic and helpers re-executing it see the same cutoff.
//
// Construct with NewCache (integer keys and values) or NewCacheOf
// (explicit codecs). All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	m   *Manager
	eng *table.Table[K, V]
	vc  Codec[V] // result-cell codec

	// locks[s] guards eng.Shards[s] and lru[s] together; locks[s:s+1] is
	// shard s's single-lock set for the runner.
	locks []*Lock
	lru   []lruShard

	ttl      uint64 // nanoseconds; 0 = entries never expire by default
	opBudget int

	// expiring records that at least one entry was ever stored with a
	// deadline (always true under WithTTL; flipped by PutTTL otherwise),
	// so reads on a TTL-less cache skip the clock until the first
	// per-entry TTL appears.
	expiring atomic.Bool

	// now is the nanosecond clock sampled outside critical sections for
	// TTL deadlines; tests substitute a fake.
	now func() uint64
}

// lruShard is one shard's recency state: the intrusive LRU list
// threading the shard's full buckets (head = most recent, tail =
// least), expiry deadlines, and the per-shard counters. All of it lives
// in cells, updated inside critical sections, so it is exact at
// quiescence and idempotent under helping. lruNil terminates the list.
type lruShard struct {
	head *Cell[uint64]
	tail *Cell[uint64]

	hits        *Cell[uint64]
	misses      *Cell[uint64]
	evictions   *Cell[uint64]
	expirations *Cell[uint64]

	prev []*Cell[uint64] // LRU links: bucket indices, lruNil-terminated
	next []*Cell[uint64]
	exp  []*Cell[uint64] // absolute expiry deadline in nanos; 0 = none
}

// lruNil terminates the intrusive LRU list (no valid bucket index is
// all-ones).
const lruNil = ^uint64(0)

// Default cache shape: 8 shards, 1024 entries total.
const (
	defaultCacheShards   = 8
	defaultCacheCapacity = 1024
)

// CacheOption configures a Cache at construction.
type CacheOption func(*cacheConfig) error

type cacheConfig struct {
	shards   int
	capacity int
	ttl      time.Duration
}

// WithCacheShards sets the number of shards, rounded up to a power of
// two (default 8). As with Map, sharding pays twice: per-lock
// contention drops toward κ/shards, and the per-shard region shrinks,
// which shortens the worst-case critical section T that every
// attempt's fixed delays are proportional to.
func WithCacheShards(n int) CacheOption {
	return func(c *cacheConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithCacheShards: shard count must be positive, got %d", n)
		}
		c.shards = table.CeilPow2(n)
		return nil
	}
}

// WithCapacity sets the total entry capacity (default 1024). It is
// split evenly across shards and each shard's share is rounded up to a
// power of two, so the effective capacity — reported by Capacity — may
// exceed the request. When a shard is full, Put evicts that shard's
// least-recently-used entry; the LRU order is per shard, the price of
// there being no global lock.
func WithCapacity(n int) CacheOption {
	return func(c *cacheConfig) error {
		if n <= 0 {
			return fmt.Errorf("wflocks: WithCapacity: capacity must be positive, got %d", n)
		}
		c.capacity = n
		return nil
	}
}

// WithTTL gives every entry a time-to-live (default: entries never
// expire). Expiry is lazy — checked by reads, which remove and count
// expired entries — so memory is reclaimed on access, not by a
// background sweeper.
func WithTTL(d time.Duration) CacheOption {
	return func(c *cacheConfig) error {
		if d <= 0 {
			return fmt.Errorf("wflocks: WithTTL: ttl must be positive, got %v", d)
		}
		c.ttl = d
		return nil
	}
}

// CacheCriticalSteps returns the WithMaxCriticalSteps bound T a Manager
// needs to host a Cache whose shards hold perShard entries (rounded up
// to a power of two, as the constructor rounds) with the given key and
// value codec widths in words. It covers the worst case of any cache
// operation: a full-region probe (perShard × (1 + keyWords) ops), plus
// the LRU unlink/relink surgery, the tail eviction, the insert writes,
// the counter updates and the result-cell writes. It is the shared
// engine formula (table.Budget) with three value accesses and 32
// bookkeeping words: the LRU list adds a constant number of single-word
// cell operations per op — pointer surgery is bounded-degree, so the
// budget stays linear in the region size exactly as MapCriticalSteps
// is.
func CacheCriticalSteps(perShard, keyWords, valueWords int) int {
	return table.Budget(perShard, keyWords, valueWords, 3, 32)
}

// NewCache creates a cache with integer keys and values, the common
// case, using the built-in single-word codecs. See NewCacheOf for
// arbitrary types.
func NewCache[K Integer, V Integer](m *Manager, opts ...CacheOption) (*Cache[K, V], error) {
	return NewCacheOf[K, V](m, IntegerCodec[K](), IntegerCodec[V](), opts...)
}

// NewCacheOf creates a cache whose keys and values are encoded by the
// given codecs (use CodecFunc for multi-word struct keys or values).
// The manager's WithMaxCriticalSteps bound must cover a worst-case
// cache operation — CacheCriticalSteps computes the requirement — or
// NewCacheOf reports it as an error.
func NewCacheOf[K comparable, V any](m *Manager, kc Codec[K], vc Codec[V], opts ...CacheOption) (*Cache[K, V], error) {
	cfg := cacheConfig{shards: defaultCacheShards, capacity: defaultCacheCapacity}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	perShard := table.CeilPow2((cfg.capacity + cfg.shards - 1) / cfg.shards)
	opBudget := CacheCriticalSteps(perShard, kc.Words(), vc.Words())
	if opBudget > m.cfg.maxCritical {
		return nil, fmt.Errorf(
			"wflocks: NewCacheOf: %d entries per shard with %d-word keys and %d-word values needs "+
				"WithMaxCriticalSteps(%d), manager has %d (see CacheCriticalSteps)",
			perShard, kc.Words(), vc.Words(), opBudget, m.cfg.maxCritical)
	}
	c := &Cache[K, V]{
		m:        m,
		eng:      table.New[K, V](kc, vc, cfg.shards, perShard, env.Mix(m.cfg.seed, 0x7766636163686573)), // "wfcaches"
		vc:       vc,
		ttl:      uint64(cfg.ttl.Nanoseconds()),
		opBudget: opBudget,
		now:      func() uint64 { return uint64(time.Now().UnixNano()) },
	}
	c.locks = make([]*Lock, c.eng.ShardCount())
	c.lru = make([]lruShard, c.eng.ShardCount())
	for s := range c.lru {
		c.locks[s] = m.NewLock()
		sh := &c.lru[s]
		sh.head = NewCell(lruNil)
		sh.tail = NewCell(lruNil)
		sh.hits = NewCell(uint64(0))
		sh.misses = NewCell(uint64(0))
		sh.evictions = NewCell(uint64(0))
		sh.expirations = NewCell(uint64(0))
		sh.prev = make([]*Cell[uint64], perShard)
		sh.next = make([]*Cell[uint64], perShard)
		sh.exp = make([]*Cell[uint64], perShard)
		for i := 0; i < perShard; i++ {
			sh.prev[i] = NewCell(lruNil)
			sh.next[i] = NewCell(lruNil)
			sh.exp[i] = NewCell(uint64(0))
		}
	}
	return c, nil
}

// Shards reports the shard count (after power-of-two rounding).
func (c *Cache[K, V]) Shards() int { return c.eng.ShardCount() }

// Capacity reports the total entry capacity after per-shard rounding;
// it is at least the WithCapacity request.
func (c *Cache[K, V]) Capacity() int { return c.eng.ShardCount() * c.eng.Capacity() }

// TTL reports the configured time-to-live (zero: entries never expire).
func (c *Cache[K, V]) TTL() time.Duration { return time.Duration(c.ttl) }

// deadline samples the expiry deadline for an entry stored now. It is
// called outside critical sections so that the section bodies capture
// the result as a constant — helpers re-executing a body must see the
// same cutoff, or the execution would not be idempotent.
func (c *Cache[K, V]) deadline() uint64 {
	if c.ttl == 0 {
		return 0
	}
	return c.now() + c.ttl
}

// cutoff samples the expiry comparison instant for a read, outside
// critical sections, for the same determinism reason as deadline. A
// cache that has never held a deadline skips the clock read entirely;
// the first PutTTL on a TTL-less cache flips expiring so reads start
// checking.
func (c *Cache[K, V]) cutoff() uint64 {
	if c.ttl == 0 && !c.expiring.Load() {
		return 0
	}
	return c.now()
}

// moveToFront makes bucket i the most-recently-used entry of its
// shard's LRU list. All pointer reads happen before any write, so
// helpers re-executing the surgery replay the identical operation
// sequence.
func moveToFront(tx *Tx, sh *lruShard, i int) {
	h := Get(tx, sh.head)
	if h == uint64(i) {
		return
	}
	// i is not the head, so it has a predecessor.
	p := Get(tx, sh.prev[i])
	n := Get(tx, sh.next[i])
	Put(tx, sh.next[p], n)
	if n != lruNil {
		Put(tx, sh.prev[n], p)
	} else {
		Put(tx, sh.tail, p)
	}
	Put(tx, sh.prev[i], lruNil)
	Put(tx, sh.next[i], h)
	Put(tx, sh.prev[h], uint64(i))
	Put(tx, sh.head, uint64(i))
}

// unlink removes bucket i from its shard's LRU list (the bucket's own
// links are left stale; insertion rewrites them).
func unlink(tx *Tx, sh *lruShard, i int) {
	p := Get(tx, sh.prev[i])
	n := Get(tx, sh.next[i])
	if p != lruNil {
		Put(tx, sh.next[p], n)
	} else {
		Put(tx, sh.head, n)
	}
	if n != lruNil {
		Put(tx, sh.prev[n], p)
	} else {
		Put(tx, sh.tail, p)
	}
}

// removeLocked expires or deletes bucket i: unlink, tombstone, shrink.
func (c *Cache[K, V]) removeLocked(tx *Tx, si, i int) {
	unlink(tx, &c.lru[si], i)
	c.eng.Remove(tx.run, &c.eng.Shards[si], i)
}

// installLocked inserts (k, v) into the shard inside a critical
// section, evicting the LRU tail first when the region has no reusable
// bucket, and links the new entry at the front of the LRU list. free is
// the probe's first reusable bucket or -1. The eviction reuses the
// tail's bucket directly: with no empty bucket left in the region, every
// probe chain covers the whole region, so the freed bucket is reachable
// for any key.
func (c *Cache[K, V]) installLocked(tx *Tx, si int, h uint64, k K, v V, dl uint64, free int) {
	sh := &c.lru[si]
	esh := &c.eng.Shards[si]
	hd := Get(tx, sh.head)
	if free < 0 {
		// Region full of live entries: evict the least-recently-used.
		t := Get(tx, sh.tail)
		q := Get(tx, sh.prev[t])
		if q != lruNil {
			Put(tx, sh.next[q], lruNil)
		}
		Put(tx, sh.tail, q)
		c.eng.Remove(tx.run, esh, int(t))
		Put(tx, sh.evictions, Get(tx, sh.evictions)+1)
		if hd == t {
			hd = lruNil
		}
		free = int(t)
	}
	c.eng.Insert(tx.run, esh, free, h, k, v)
	Put(tx, sh.exp[free], dl)
	Put(tx, sh.prev[free], lruNil)
	Put(tx, sh.next[free], hd)
	if hd != lruNil {
		Put(tx, sh.prev[hd], uint64(free))
	} else {
		Put(tx, sh.tail, uint64(free))
	}
	Put(tx, sh.head, uint64(free))
}

// Get reports the value cached for k and bumps its recency. A hit moves
// the entry to the front of its shard's LRU list; an expired entry is
// removed (counted as an expiration and a miss). Results are routed
// through fresh cells, never closure captures, because a stalled
// attempt's body may be re-executed by helpers concurrently.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	h := c.eng.Hash(k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	sh := &c.lru[si]
	cutoff := c.cutoff()
	var zero V
	val := newResultCell(c.vc)
	found := NewBoolCell(false)
	p := c.m.Acquire()
	defer c.m.Release(p)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		i, ok, _ := c.eng.Find(tx.run, esh, h, home, k)
		if !ok {
			Put(tx, sh.misses, Get(tx, sh.misses)+1)
			return
		}
		if d := Get(tx, sh.exp[i]); d != 0 && d <= cutoff {
			c.eng.BumpVer(tx.run, esh)
			c.removeLocked(tx, si, i)
			c.eng.BumpVer(tx.run, esh)
			Put(tx, sh.expirations, Get(tx, sh.expirations)+1)
			Put(tx, sh.misses, Get(tx, sh.misses)+1)
			return
		}
		moveToFront(tx, sh, i)
		Put(tx, val, c.eng.Val(tx.run, esh, i))
		Put(tx, found, true)
		Put(tx, sh.hits, Get(tx, sh.hits)+1)
	}))
	if !found.Get(p) {
		return zero, false
	}
	return val.Get(p), true
}

// Contains reports whether k is cached and unexpired, without bumping
// its recency, removing it on expiry, or touching the hit/miss
// counters — a pure peek. An entry past its deadline reports false but
// is left in place for the next Get to reclaim; Contains therefore
// never mutates the cache, making it the cheapest existence check
// (one probe in one critical section).
func (c *Cache[K, V]) Contains(k K) bool {
	h := c.eng.Hash(k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	sh := &c.lru[si]
	cutoff := c.cutoff()
	found := NewBoolCell(false)
	p := c.m.Acquire()
	defer c.m.Release(p)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		i, ok, _ := c.eng.Find(tx.run, esh, h, home, k)
		if !ok {
			return
		}
		if d := Get(tx, sh.exp[i]); d != 0 && d <= cutoff {
			return
		}
		Put(tx, found, true)
	}))
	return found.Get(p)
}

// Put stores v for k, inserting or overwriting, and makes the entry the
// most recently used. When k's shard is at capacity the shard's LRU
// tail is evicted in the same critical section, so Put never fails —
// unlike Map.Put, which reports ErrMapFull rather than displace an
// entry.
func (c *Cache[K, V]) Put(k K, v V) {
	c.putWithDeadline(k, v, c.deadline())
}

// PutTTL stores v for k with an explicit time-to-live that overrides
// the cache-wide WithTTL default for this entry alone (it works on a
// cache constructed without WithTTL, too). A non-positive ttl stores
// the entry with the cache's default expiry, exactly as Put would.
// Everything else — recency, eviction, lazy expiry on read — follows
// Put's contract.
func (c *Cache[K, V]) PutTTL(k K, v V, ttl time.Duration) {
	dl := c.deadline()
	if ttl > 0 {
		dl = c.now() + uint64(ttl.Nanoseconds())
		c.expiring.Store(true)
	}
	c.putWithDeadline(k, v, dl)
}

// putWithDeadline is Put's body with the expiry deadline already
// sampled — outside the critical section, as idempotence requires.
func (c *Cache[K, V]) putWithDeadline(k K, v V, dl uint64) {
	h := c.eng.Hash(k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	sh := &c.lru[si]
	p := c.m.Acquire()
	defer c.m.Release(p)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		i, ok, free := c.eng.Find(tx.run, esh, h, home, k)
		c.eng.BumpVer(tx.run, esh)
		if ok {
			c.eng.SetVal(tx.run, esh, i, v)
			Put(tx, sh.exp[i], dl)
			moveToFront(tx, sh, i)
		} else {
			c.installLocked(tx, si, h, k, v, dl, free)
		}
		c.eng.BumpVer(tx.run, esh)
	}))
}

// Delete removes k, reporting whether it was present. The bucket
// becomes a tombstone so longer probe chains stay reachable.
func (c *Cache[K, V]) Delete(k K) bool {
	h := c.eng.Hash(k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	removed := NewBoolCell(false)
	p := c.m.Acquire()
	defer c.m.Release(p)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		if i, ok, _ := c.eng.Find(tx.run, esh, h, home, k); ok {
			c.eng.BumpVer(tx.run, esh)
			c.removeLocked(tx, si, i)
			c.eng.BumpVer(tx.run, esh)
			Put(tx, removed, true)
		}
	}))
	return removed.Get(p)
}

// GetOrCompute returns the cached value for k, computing and installing
// it on a miss. compute runs outside any critical section — it may be
// arbitrarily slow (a backing-store fetch) without ever inflating the
// critical-section bound T — and the result is installed in a second
// critical section that re-probes first: when several goroutines miss
// concurrently, each computes, the first install wins, and the losers
// observe and return the winner's value, so every concurrent caller
// returns the same value. One hit or one miss is counted, by the
// initial probe.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() V) V {
	if v, ok := c.Get(k); ok {
		return v
	}
	v := compute()
	h := c.eng.Hash(k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	sh := &c.lru[si]
	dl := c.deadline()
	cutoff := c.cutoff()
	res := NewCellOf(c.vc, v)
	p := c.m.Acquire()
	defer c.m.Release(p)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		i, ok, free := c.eng.Find(tx.run, esh, h, home, k)
		if ok {
			if d := Get(tx, sh.exp[i]); d == 0 || d > cutoff {
				// Raced: another goroutine installed first. Adopt its
				// value so concurrent callers agree.
				Put(tx, res, c.eng.Val(tx.run, esh, i))
				moveToFront(tx, sh, i)
				return
			}
			// The raced-in entry already expired: replace it in place.
			c.eng.BumpVer(tx.run, esh)
			c.eng.SetVal(tx.run, esh, i, v)
			Put(tx, sh.exp[i], dl)
			c.eng.BumpVer(tx.run, esh)
			Put(tx, sh.expirations, Get(tx, sh.expirations)+1)
			moveToFront(tx, sh, i)
			return
		}
		c.eng.BumpVer(tx.run, esh)
		c.installLocked(tx, si, h, k, v, dl, free)
		c.eng.BumpVer(tx.run, esh)
	}))
	return res.Get(p)
}

// Len reports the number of cached entries. It is the lock-free fast
// path: it sums the per-shard size cells without taking any shard
// lock, so it never contends with writers and costs O(shards)
// regardless of occupancy. Under live traffic the sum can be
// momentarily skewed (each shard's count is read at a different
// instant); at quiescence it is exact. Expired-but-unreclaimed entries
// count until a read removes them — expiry is lazy.
func (c *Cache[K, V]) Len() int {
	p := c.m.Acquire()
	defer c.m.Release(p)
	n := 0
	for s := range c.eng.Shards {
		n += int(c.eng.LoadSize(p.env, &c.eng.Shards[s]))
	}
	return n
}

// All returns an iterator over the cache's unexpired entries, for use
// with range-over-func. Each shard is captured as a consistent
// snapshot — buckets are read lock-free under the shard's seqlock — so
// iteration never blocks writers and never bumps recency. Expired
// entries are skipped (but, as with Contains, left for reads to
// reclaim). Entries from different shards can reflect different
// instants; mutations concurrent with iteration may or may not be
// observed.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		type entry struct {
			k K
			v V
		}
		var snap []entry
		p := c.m.Acquire()
		for s := range c.eng.Shards {
			esh := &c.eng.Shards[s]
			sh := &c.lru[s]
			cutoff := c.cutoff()
			c.eng.ReadStable(p.env, esh, runtime.Gosched, func() {
				snap = snap[:0]
				for i := 0; i < c.eng.Capacity(); i++ {
					if c.eng.LoadMeta(p.env, esh, i)&table.StateMask != table.Full {
						continue
					}
					if d := sh.exp[i].Get(p); d != 0 && d <= cutoff {
						continue
					}
					snap = append(snap, entry{c.eng.LoadKey(p.env, esh, i), c.eng.LoadVal(p.env, esh, i)})
				}
			})
			c.m.Release(p)
			for _, e := range snap {
				if !yield(e.k, e.v) {
					return
				}
			}
			p = c.m.Acquire()
		}
		c.m.Release(p)
	}
}

// CacheShardStats is one shard's view in CacheStats.
type CacheShardStats struct {
	// Lock carries the shard lock's contention counters (these same
	// counters appear in the manager-wide StatsSnapshot.Locks).
	Lock LockStats
	// Size is the shard's entry count.
	Size int
	// Hits and Misses count Get (and GetOrCompute) outcomes; an expired
	// entry counts as an expiration and a miss.
	Hits, Misses uint64
	// Evictions counts LRU-tail displacements by Put into a full shard;
	// Expirations counts TTL removals observed by reads.
	Evictions, Expirations uint64
	// Tombstones, MaxProbe and SumProbe describe the shard's
	// open-addressed region, as in MapShardStats.
	Tombstones int
	MaxProbe   int
	SumProbe   int
}

// CacheStats is a point-in-time view of a cache's per-shard traffic,
// occupancy and effectiveness, with the same weak-consistency caveat as
// StatsSnapshot: counters are updated inside critical sections, so they
// are exact at quiescence.
type CacheStats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []CacheShardStats
	// Len is the summed entry count.
	Len int
	// Hits, Misses, Evictions and Expirations are the summed counters.
	Hits, Misses, Evictions, Expirations uint64
	// HitRate is Hits/(Hits+Misses), 0 before any access.
	HitRate float64
	// Balance is Jain's fairness index over per-shard accesses
	// (hits+misses): 1.0 when traffic spreads evenly, approaching
	// 1/shards under maximal skew (one hot shard).
	Balance float64
	// MaxOverMean is the hottest shard's accesses over the mean.
	MaxOverMean float64
	// MaxProbe is the worst probe displacement across all shards.
	MaxProbe int
}

// ShardLockID reports the ID of the shard lock covering key k — the
// LockID that k's operations carry in Stats().Shards, ObsSnapshot.Locks
// and the flight recorder's events. It is a pure hash computation (no
// lock is taken), so callers can correlate request-level traces with
// lock-level events without perturbing either.
func (c *Cache[K, V]) ShardLockID(k K) int {
	return c.locks[c.eng.ShardIndex(c.eng.Hash(k))].ID()
}

// Stats snapshots per-shard hit/miss/eviction/expiration counters,
// sizes, and the shard lock's contention counters.
func (c *Cache[K, V]) Stats() CacheStats {
	p := c.m.Acquire()
	defer c.m.Release(p)
	cs := CacheStats{Shards: make([]CacheShardStats, c.eng.ShardCount())}
	accesses := make([]uint64, c.eng.ShardCount())
	for s := range c.eng.Shards {
		sh := &c.lru[s]
		a, w, hp := c.locks[s].inner.Counters()
		ps := c.eng.ProbeStats(p.env, &c.eng.Shards[s])
		st := CacheShardStats{
			Lock:        LockStats{ID: c.locks[s].ID(), Attempts: a, Wins: w, Helps: hp},
			Size:        int(c.eng.LoadSize(p.env, &c.eng.Shards[s])),
			Hits:        sh.hits.Get(p),
			Misses:      sh.misses.Get(p),
			Evictions:   sh.evictions.Get(p),
			Expirations: sh.expirations.Get(p),
			Tombstones:  ps.Tombstones,
			MaxProbe:    ps.MaxProbe,
			SumProbe:    ps.SumProbe,
		}
		cs.Shards[s] = st
		if ps.MaxProbe > cs.MaxProbe {
			cs.MaxProbe = ps.MaxProbe
		}
		cs.Len += st.Size
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Evictions += st.Evictions
		cs.Expirations += st.Expirations
		accesses[s] = st.Hits + st.Misses
	}
	if total := cs.Hits + cs.Misses; total > 0 {
		cs.HitRate = float64(cs.Hits) / float64(total)
	}
	d := stats.NewShardDist(accesses)
	cs.Balance = d.Jain
	cs.MaxOverMean = d.MaxOverMean
	return cs
}
