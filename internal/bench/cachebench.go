package bench

import (
	"container/list"
	"fmt"
	"sync"

	"wflocks"
	"wflocks/internal/workload"
)

// Cache family: drives a workload.CacheScenario against the wfcache
// subsystem and against a classic mutex+container/list LRU, in two
// regimes.
//
// In the raw regime the blocking baseline wins on absolute ops/sec —
// every wait-free attempt pays the paper's fixed delays (c·κ²L²T own
// steps), a constant-factor price a sync.Mutex does not pay. The
// interesting regime is the paper's: lock holders that stall
// mid-critical-section (a preempted vCPU, a page fault, a GC pause).
// A stalled mutex holder blocks its whole cache for the stall; a
// stalled wfcache winner is helped — competitors re-execute its
// critical section through the idempotence layer and move on, so the
// stall costs only the stalled goroutine.
//
// The stall is injected symmetrically through the value-write path:
// the baseline calls a StallPoint while holding its mutex whenever it
// touches an entry's value, and wfcache's values go through a codec
// whose Encode calls the same StallPoint. During the measured run,
// every wfcache value encode happens inside a critical section (bucket
// writes and result-cell writes are both body operations; result cells
// are constructed unencoded), so a helper re-executing a stalled body
// draws its own — almost always stall-free — pass and completes the
// stalled winner's work. The draw is per execution, not per logical
// op, which is exactly the preemption model: stalls strike the
// executing process, not the operation.

// MutexLRU is the blocking baseline: the classic cache design — one
// sync.Mutex guarding a map plus a container/list recency list, as in
// the widely used golang-lru shape. Even reads take the global lock
// (bumping recency is a write), so a stalled holder blocks every
// caller; that is the behavior the wait-free construction exists to
// avoid.
type MutexLRU struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element
	order    *list.List // front = most recently used
	stall    *StallPoint

	hits, misses, evictions uint64
}

type lruEntry struct{ k, v uint64 }

// NewMutexLRU creates a baseline cache with the given capacity. stall
// (which may be nil) is drawn while the mutex is held whenever an
// entry's value is touched, mirroring wfcache's in-critical-section
// encode.
func NewMutexLRU(capacity int, stall *StallPoint) *MutexLRU {
	return &MutexLRU{
		capacity: capacity,
		entries:  make(map[uint64]*list.Element, capacity),
		order:    list.New(),
		stall:    stall,
	}
}

// Get returns the value cached for k, bumping its recency.
func (c *MutexLRU) Get(k uint64) (uint64, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return 0, false
	}
	c.stall.Hit()
	c.order.MoveToFront(e)
	v := e.Value.(*lruEntry).v
	c.hits++
	c.mu.Unlock()
	return v, true
}

// Put stores v for k, evicting the LRU entry at capacity.
func (c *MutexLRU) Put(k, v uint64) {
	c.mu.Lock()
	c.stall.Hit()
	if e, ok := c.entries[k]; ok {
		e.Value.(*lruEntry).v = v
		c.order.MoveToFront(e)
		c.mu.Unlock()
		return
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruEntry).k)
		c.evictions++
	}
	c.entries[k] = c.order.PushFront(&lruEntry{k: k, v: v})
	c.mu.Unlock()
}

// Delete removes k, reporting whether it was present.
func (c *MutexLRU) Delete(k uint64) bool {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.order.Remove(e)
		delete(c.entries, k)
	}
	c.mu.Unlock()
	return ok
}

// Len reports the entry count.
func (c *MutexLRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters reports hits, misses and evictions so far.
func (c *MutexLRU) Counters() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// CountedKV is the surface the cache family compares: the operation
// mix's KV plus cumulative Get outcomes and evictions.
type CountedKV interface {
	KV
	Counters() (hits, misses, evictions uint64)
}

// WfCache is a wflocks.Cache as a CountedKV.
type WfCache struct {
	*wflocks.Cache[uint64, uint64]
}

// Counters reports hits, misses and evictions so far.
func (c WfCache) Counters() (hits, misses, evictions uint64) {
	cs := c.Stats()
	return cs.Hits, cs.Misses, cs.Evictions
}

// NewWfCache builds the scenario's wfcache at the given shard count
// under delay variant v, its values drawing from sp. procs bounds the
// goroutines that will contend (see NewManager).
func NewWfCache(sc *workload.CacheScenario, v Variant, shards, procs int, sp *StallPoint, extra ...wflocks.Option) (WfCache, *wflocks.Manager, error) {
	// CacheCriticalSteps pow2-rounds its per-shard argument exactly as
	// the constructor does, so the raw quotient is the right input.
	perShard := (sc.Capacity + shards - 1) / shards
	m, err := NewManager(v, procs, 1, wflocks.CacheCriticalSteps(perShard, 1, 1), extra...)
	if err != nil {
		return WfCache{}, nil, err
	}
	c, err := wflocks.NewCacheOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), valueCodec(sp),
		wflocks.WithCacheShards(shards), wflocks.WithCapacity(sc.Capacity))
	return WfCache{c}, m, err
}

// cacheValue is the value every cache implementation holds for key k.
func cacheValue(k uint64) uint64 { return k * 3 }

// PrefillCache fills kv to capacity with the head of the keyspace (the
// zipf-hot ranks), so a run starts from a warm cache.
func PrefillCache(sc *workload.CacheScenario, kv KV) {
	for k := uint64(0); k < uint64(sc.Capacity); k++ {
		kv.Put(k, cacheValue(k))
	}
}

// CacheWorker returns goroutine w's operation over kv: each call draws
// one op from the scenario's mix and applies it.
func CacheWorker(sc *workload.CacheScenario, kv KV, w int) func(i int) error {
	st := workload.NewCacheOpStream(sc, workerSeed(w))
	return func(int) error {
		kind, key := st.Next()
		k := uint64(key)
		switch kind {
		case workload.CacheGet:
			// Read-through: a miss computes (free here) and installs.
			if _, ok := kv.Get(k); !ok {
				kv.Put(k, cacheValue(k))
			}
		case workload.CachePut:
			kv.Put(k, cacheValue(k))
		case workload.CacheDelete:
			kv.Delete(k)
		}
		return nil
	}
}

// HitRate is the share of Gets that hit since the (hits, misses) base
// was read off c.
func HitRate(c CountedKV, baseHits, baseMisses uint64) float64 {
	hits, misses, _ := c.Counters()
	hits, misses = hits-baseHits, misses-baseMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// cacheFamily compares wfcache (sweeping the shard count under each
// delay variant) with the mutex LRU baseline, raw and stalled:
// throughput, hit rate, evictions and contention.
func cacheFamily(sc *workload.CacheScenario, scale Scale, variants []Variant) (*family, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	workers := workersAtLeast(4)
	opsPer := scale.pick(200, 1000)
	ops := workers * opsPer
	f := &family{
		title: fmt.Sprintf("%s: %d%%/%d%%/%d%% get/put/delete, %d keys, cap %d, skew %.1f, %d workers × %d ops",
			sc.Name, sc.GetPct, sc.PutPct, sc.DeletePct, sc.Keys, sc.Capacity, sc.Skew, workers, opsPer),
		header: append([]string{"impl", "shards", "stall", "ops/sec", "hit%", "evict", "success", "attempts/op", "balance"}, obsHeader...),
		notes: []string{
			"adaptive rows use WithUnknownBounds delays that track point contention (the recommended default); known rows pay the fixed c·κ²L²T delays",
			"raw regime: the mutex LRU wins on constant factors — contended wfcache attempts still pay their regime's delays",
			"stall regime: holders stall mid-critical-section (" + fmt.Sprintf("%v every %d value writes", StallDur, StallPeriod) + "); helpers absorb wfcache's stalls, the mutex serializes them",
			"hit% counts Get outcomes; the cache holds " + fmt.Sprintf("%d of %d", sc.Capacity, sc.Keys) + " keys, so hit rate is emergent from skew and recency",
		},
		stall: true,
		obs:   true,
	}
	// cacheInstance is what every cache row shares: the prefill, the
	// symmetric run over c and the cells over the run's own counter
	// deltas. balance is the implementation's shard-balance cell.
	cacheInstance := func(c CountedKV, balance func() string, mgrs ...*wflocks.Manager) *instance {
		PrefillCache(sc, c)
		h0, m0, e0 := c.Counters()
		return &instance{
			mgrs: mgrs,
			run: func() error {
				return runWorkers(workers, opsPer, func(w int) func(int) error { return CacheWorker(sc, c, w) })
			},
			cols: func(r measured) []string {
				_, _, evictions := c.Counters()
				success, attemptsPer := r.attemptCols(uint64(ops))
				return []string{r.perSec(ops), fmt.Sprintf("%.1f", 100*HitRate(c, h0, m0)), fmt.Sprint(evictions - e0),
					success, attemptsPer, balance()}
			},
		}
	}
	for _, v := range variants {
		for _, shards := range shardSweep {
			f.add(func(sp *StallPoint) (*instance, error) {
				c, m, err := NewWfCache(sc, v, shards, workers, sp, wflocks.WithMetrics())
				if err != nil {
					return nil, err
				}
				return cacheInstance(c, func() string { return fmt.Sprintf("%.3f", c.Stats().Balance) }, m), nil
			}, "wfcache/"+string(v), fmt.Sprint(shards))
		}
	}
	f.add(func(sp *StallPoint) (*instance, error) {
		// One lock: the balance column does not apply.
		return cacheInstance(NewMutexLRU(sc.Capacity, sp), func() string { return "-" }), nil
	}, "mutexlru", "1")
	return f, nil
}
