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

// Cache is a generic sharded cache with CLOCK (second-chance) eviction
// and optional TTL, built on the manager's wait-free locks and the
// shared shard-table engine (internal/table). Keys hash to one of a
// power-of-two number of shards; each shard owns one Lock guarding an
// engine bucket region plus, in typed cells, a CLOCK hand and the
// entries' expiry deadlines, so a stalled writer's section — an
// eviction included — is finished by whoever needs the shard next. A
// shard's bucket count is fixed (no rehashing), which keeps the
// worst-case critical section T bounded; see CacheCriticalSteps.
//
// Reads make no lock attempt. Get and Contains probe under the shard's
// seqlock, as Map.Get does: a bracket that loads key, deadline and
// value between two equal, even reads of the shard version saw the
// shard at one instant, where the read linearizes. A mutation holds the
// version odd while it applies, so readers of a shard whose writer is
// stalled mid-section find no stable bracket; after a bounded number of
// tries they take the locked path instead of spinning, and that
// acquisition helps the stalled section through. A Get that finds its
// entry expired locks too: expiry is lazy, and removing the entry
// (counted as an expiration and a miss) is a mutation.
//
// Recency is one reference bit per entry: a hit sets it with a plain
// atomic outside any section, and a Put into a full shard sweeps from
// the hand, passing over (granting a second chance to) entries whose
// bit is set and evicting the first whose bit is clear, in the same
// section as its insert. That is CLOCK, not strict LRU — the victim is
// unreferenced since the hand last passed it, not necessarily the least
// recently used — because reordering a list on every hit is a mutation
// and would put every read back under the lock. What a section body
// decides on besides cell reads — the TTL clock, the reference bits it
// sweeps over — is sampled before the section, so helpers re-executing
// the body repeat it exactly.
//
// Construct with NewCache (integer keys and values) or NewCacheOf
// (explicit codecs). All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	m   *Manager
	eng *table.Table[K, V]
	vc  Codec[V] // result-cell codec

	// locks[s] guards eng.Shards[s] and the cells of clock[s] together;
	// locks[s:s+1] is shard s's single-lock set for the runner.
	locks []*Lock
	clock []clockShard

	ttl      uint64 // nanoseconds; 0 = entries never expire by default
	opBudget int

	// expiring records that some entry was ever stored with a deadline
	// (always true under WithTTL; flipped by PutTTL otherwise): until
	// then reads on a TTL-less cache skip the clock.
	expiring atomic.Bool

	// now is the nanosecond clock sampled outside critical sections for
	// TTL deadlines; tests substitute a fake.
	now func() uint64
}

// clockShard is what one shard keeps beside its engine region. The
// cells change only inside critical sections: idempotent under helping,
// exact at quiescence. The reference bits and hit/miss counts are plain
// atomics no section body touches; callers update them once their
// operation's outcome is known.
type clockShard struct {
	hand        *Cell[uint64] // bucket the next sweep starts at
	evictions   *Cell[uint64]
	expirations *Cell[uint64]
	exp         []*Cell[uint64] // absolute expiry deadline in nanos; 0 = none

	ref          []atomic.Uint64 // bucket i's reference bit: bit i&63 of word i>>6
	hits, misses atomic.Uint64

	// Each shard's counters are bumped by its own readers: pad the 88
	// bytes above to 128, as table.Shard does.
	_ [40]byte
}

// touch sets bucket i's reference bit; loading first keeps a hot
// entry's hits from writing the shared word at all.
func (sh *clockShard) touch(i int) {
	w, bit := &sh.ref[i>>6], uint64(1)<<(i&63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// clockVictim sweeps n buckets from hand over refs, a snapshot of the
// reference bits (none when empty): it passes over buckets whose bit is
// set and stops at the first clear one, or back at hand if all were set.
func clockVictim(refs []uint64, hand, n int) (victim, passed int) {
	for ; passed < n; passed++ {
		i := (hand + passed) & (n - 1)
		if len(refs) == 0 || refs[i>>6]&(1<<(i&63)) == 0 {
			return i, passed
		}
	}
	return hand, n
}

// settle applies the word a storing section published: the bucket it
// wrote in the low half and, in the high half, how many bits ending
// there to clear — a placed entry's own and those of the entries an
// eviction sweep passed over, their second chance used — or zero to
// mark an existing entry referenced. Clearing is the half of the sweep
// that must not run inside a re-executable body.
func (sh *clockShard) settle(at uint64, n int) {
	bucket, clear := int(uint32(at)), int(at>>32)
	if clear == 0 {
		sh.touch(bucket)
	}
	for j := 0; j < clear; j++ {
		i := (bucket - j) & (n - 1)
		sh.ref[i>>6].And(^(uint64(1) << (i & 63)))
	}
}

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
// exceed the request. When a shard is full, Put evicts an entry of that
// shard its CLOCK sweep finds unreferenced; recency is per shard, the
// price of there being no global lock.
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
// the eviction, the insert, the deadline, hand and counter updates and
// the result-cell write: the shared engine formula (table.Budget) with
// two value accesses and 16 bookkeeping words. The CLOCK sweep reads a
// snapshot, not cells, so the budget stays linear in the region size.
func CacheCriticalSteps(perShard, keyWords, valueWords int) int {
	return table.Budget(perShard, keyWords, valueWords, 2, 16)
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
	c.clock = make([]clockShard, c.eng.ShardCount())
	for s := range c.clock {
		c.locks[s] = m.NewLock()
		sh := &c.clock[s]
		sh.hand = NewCell(uint64(0))
		sh.evictions = NewCell(uint64(0))
		sh.expirations = NewCell(uint64(0))
		sh.exp = make([]*Cell[uint64], perShard)
		for i := range sh.exp {
			sh.exp[i] = NewCell(uint64(0))
		}
		sh.ref = make([]atomic.Uint64, (perShard+63)/64)
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

// deadline samples the expiry deadline for an entry stored now, outside
// the critical section that captures it as a constant.
func (c *Cache[K, V]) deadline() uint64 {
	if c.ttl == 0 {
		return 0
	}
	return c.now() + c.ttl
}

// cutoff samples the instant a read compares deadlines against, outside
// critical sections as deadline is. A cache that has never held a
// deadline skips the clock read (see expiring).
func (c *Cache[K, V]) cutoff() uint64 {
	if c.ttl == 0 && !c.expiring.Load() {
		return 0
	}
	return c.now()
}

// expired reports whether deadline d has passed at cutoff.
func expired(d, cutoff uint64) bool { return d != 0 && d <= cutoff }

// peekTries bounds the brackets a read tries, as Map.Get's are bounded.
const peekTries = 4

// peek probes shard si for k outside any critical section: key,
// deadline and — when wantVal, for a live entry — value are loaded
// inside one bracket of the shard's version, so with ok the result
// describes the shard at one instant: live reports k present (at bucket
// idx) and unexpired. ok is false when no bracket validated or k's
// entry is expired: the caller takes the lock.
func (c *Cache[K, V]) peek(p *Process, si int, h uint64, home int, k K, cutoff uint64, wantVal bool) (v V, idx int, live, ok bool) {
	esh := &c.eng.Shards[si]
	for a := 0; a < peekTries; a++ {
		v0 := esh.Ver.Load(p.env)
		if v0&1 == 1 {
			continue
		}
		var val V
		i, found := c.eng.LoadFind(p.env, esh, h, home, k)
		stale := found && expired(c.clock[si].exp[i].Get(p), cutoff)
		live = found && !stale
		if live && wantVal {
			val = c.eng.LoadVal(p.env, esh, i)
		}
		if esh.Ver.Load(p.env) == v0 {
			return val, i, live, !stale
		}
	}
	return v, 0, false, false
}

// Get reports the value cached for k and marks the entry referenced. A
// hit or a miss under a stable version bracket makes no lock attempt;
// an expired entry, or a version that keeps moving, takes the critical
// section below. Its value is routed through a fresh cell, never a
// closure capture, since helpers may re-execute a stalled attempt's
// body; the found bucket rides an atomic every run stores identically.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	p := c.m.Acquire()
	defer c.m.Release(p)
	h := c.eng.HashIn(p.env, k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	sh := &c.clock[si]
	cutoff := c.cutoff()
	v, i, live, ok := c.peek(p, si, h, home, k, cutoff, true)
	if !ok {
		val := newResultCell(c.vc)
		var hit atomic.Uint64 // found bucket + 1
		c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
			b, found, _ := c.eng.Find(tx.run, esh, h, home, k)
			if !found {
				return
			}
			if expired(Get(tx, sh.exp[b]), cutoff) {
				c.eng.BumpVer(tx.run, esh)
				c.eng.Remove(tx.run, esh, b)
				c.eng.BumpVer(tx.run, esh)
				Put(tx, sh.expirations, Get(tx, sh.expirations)+1)
				return
			}
			Put(tx, val, c.eng.Val(tx.run, esh, b))
			hit.Store(uint64(b) + 1)
		}))
		if b := hit.Load(); b != 0 {
			v, i, live = val.Get(p), int(b-1), true
		}
	}
	if !live {
		sh.misses.Add(1)
		return v, false
	}
	sh.touch(i)
	sh.hits.Add(1)
	return v, true
}

// Contains reports whether k is cached and unexpired, without marking
// it referenced, removing it on expiry, or touching the hit/miss
// counters — a pure peek that never mutates the cache. An entry past
// its deadline reports false but is left for the next Get to reclaim.
// Like Get it locks only for such an entry or a version that keeps moving.
func (c *Cache[K, V]) Contains(k K) bool {
	p := c.m.Acquire()
	defer c.m.Release(p)
	h := c.eng.HashIn(p.env, k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	cutoff := c.cutoff()
	if _, _, live, ok := c.peek(p, si, h, home, k, cutoff, false); ok {
		return live
	}
	esh := &c.eng.Shards[si]
	sh := &c.clock[si]
	var live atomic.Bool
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		if i, ok, _ := c.eng.Find(tx.run, esh, h, home, k); ok && !expired(Get(tx, sh.exp[i]), cutoff) {
			live.Store(true)
		}
	}))
	return live.Load()
}

// Put stores v for k, inserting or overwriting, and marks an
// overwritten entry referenced. When k's shard is at capacity an entry
// the CLOCK sweep finds unreferenced is evicted in the same critical
// section, so Put never fails — unlike Map.Put, which reports
// ErrMapFull rather than displace an entry.
func (c *Cache[K, V]) Put(k K, v V) {
	c.store(k, v, c.deadline(), 0, nil)
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
	c.store(k, v, dl, 0, nil)
}

// store is the one storing operation, its deadline already sampled.
// With a nil adopt it is Put: k's entry is overwritten or inserted.
// With adopt (GetOrCompute's install, adopt holding v) a live entry is
// left alone and its value copied into adopt; an expired one is
// replaced in place and counted.
func (c *Cache[K, V]) store(k K, v V, dl, cutoff uint64, adopt *Cell[V]) {
	p := c.m.Acquire()
	defer c.m.Release(p)
	h := c.eng.HashIn(p.env, k)
	si := c.eng.ShardIndex(h)
	body, at := c.storeSection(p, si, h, k, v, dl, cutoff, adopt)
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, body)
	c.clock[si].settle(at.Load(), c.eng.Capacity())
}

// storeSection builds store's critical-section body and the word it
// publishes for settle — through an atomic, every run computing the
// same one. Only a shard that reads full can make the body evict, so
// only then are the reference bits snapshotted for its sweep; a Put
// that raced the shard full sweeps over nothing.
func (c *Cache[K, V]) storeSection(p *Process, si int, h uint64, k K, v V, dl, cutoff uint64, adopt *Cell[V]) (txFrame, *atomic.Uint64) {
	esh := &c.eng.Shards[si]
	sh := &c.clock[si]
	home, n := c.eng.Home(h), c.eng.Capacity()
	var refs []uint64
	if int(c.eng.LoadSize(p.env, esh)) == n {
		refs = make([]uint64, len(sh.ref))
		for w := range refs {
			refs[w] = sh.ref[w].Load()
		}
	}
	at := new(atomic.Uint64)
	return func(tx *Tx) {
		i, ok, free := c.eng.Find(tx.run, esh, h, home, k)
		if ok && adopt != nil {
			if !expired(Get(tx, sh.exp[i]), cutoff) {
				// Raced: another goroutine installed first. Adopt its
				// value so concurrent callers agree.
				Put(tx, adopt, c.eng.Val(tx.run, esh, i))
				at.Store(uint64(i))
				return
			}
			Put(tx, sh.expirations, Get(tx, sh.expirations)+1)
		}
		c.eng.BumpVer(tx.run, esh)
		if ok {
			c.eng.SetVal(tx.run, esh, i, v)
			Put(tx, sh.exp[i], dl)
			at.Store(uint64(i))
		} else {
			clear := 1
			if free < 0 {
				// Region full of live entries: evict the sweep's victim and
				// reuse its bucket directly — with no empty bucket left,
				// every probe chain covers the whole region, so the freed
				// bucket is reachable for any key.
				var passed int
				free, passed = clockVictim(refs, int(Get(tx, sh.hand)), n)
				clear = min(passed+1, n)
				c.eng.Remove(tx.run, esh, free)
				Put(tx, sh.evictions, Get(tx, sh.evictions)+1)
				Put(tx, sh.hand, uint64((free+1)&(n-1)))
			}
			c.eng.Insert(tx.run, esh, free, h, k, v)
			Put(tx, sh.exp[free], dl)
			at.Store(uint64(clear)<<32 | uint64(free))
		}
		c.eng.BumpVer(tx.run, esh)
	}, at
}

// Delete removes k, reporting whether it was present. The bucket
// becomes a tombstone so longer probe chains stay reachable.
func (c *Cache[K, V]) Delete(k K) bool {
	p := c.m.Acquire()
	defer c.m.Release(p)
	h := c.eng.HashIn(p.env, k)
	si, home := c.eng.ShardIndex(h), c.eng.Home(h)
	esh := &c.eng.Shards[si]
	var removed atomic.Bool
	c.m.run(context.Background(), p, c.locks[si:si+1], c.opBudget, txFrame(func(tx *Tx) {
		if i, ok, _ := c.eng.Find(tx.run, esh, h, home, k); ok {
			c.eng.BumpVer(tx.run, esh)
			c.eng.Remove(tx.run, esh, i)
			c.eng.BumpVer(tx.run, esh)
			removed.Store(true)
		}
	}))
	return removed.Load()
}

// GetOrCompute returns the cached value for k, computing and installing
// it on a miss. compute runs outside any critical section — it may be
// arbitrarily slow (a backing-store fetch) without ever inflating the
// critical-section bound T — and the result is installed in a critical
// section that re-probes first: when several goroutines miss
// concurrently, each computes, the first install wins, and the losers
// observe and return the winner's value, so every concurrent caller
// returns the same value. One hit or one miss is counted, by the
// initial probe.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() V) V {
	if v, ok := c.Get(k); ok {
		return v
	}
	v := compute()
	res := NewCellOf(c.vc, v)
	c.store(k, v, c.deadline(), c.cutoff(), res)
	return Load(c.m, res)
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
			sh := &c.clock[s]
			cutoff := c.cutoff()
			c.eng.ReadStable(p.env, esh, runtime.Gosched, func() {
				snap = snap[:0]
				for i := 0; i < c.eng.Capacity(); i++ {
					if c.eng.LoadMeta(p.env, esh, i)&table.StateMask != table.Full {
						continue
					}
					if expired(sh.exp[i].Get(p), cutoff) {
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
	// Evictions counts displacements by Put into a full shard (the CLOCK
	// sweep's victims); Expirations counts TTL removals observed by reads.
	Evictions, Expirations uint64
	// Tombstones, MaxProbe and SumProbe describe the shard's
	// open-addressed region, as in MapShardStats.
	Tombstones int
	MaxProbe   int
	SumProbe   int
}

// CacheStats is a point-in-time view of a cache's per-shard traffic,
// occupancy and effectiveness, with the same weak-consistency caveat as
// StatsSnapshot: sections count evictions and expirations, readers their
// own hits and misses, so all of them are exact at quiescence.
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
		sh := &c.clock[s]
		ps := c.eng.ProbeStats(p.env, &c.eng.Shards[s])
		st := CacheShardStats{
			Lock:        c.locks[s].stats(),
			Size:        int(c.eng.LoadSize(p.env, &c.eng.Shards[s])),
			Hits:        sh.hits.Load(),
			Misses:      sh.misses.Load(),
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
