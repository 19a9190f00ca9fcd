package wflocks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wflocks/internal/idem"
	"wflocks/internal/workload"
)

// cacheManager builds a manager sized for caches in tests: κ as given,
// T covering a worst-case cache operation at the given per-shard
// capacity, and delay constants of 1 to keep the fixed stalls short on
// test machines.
func cacheManager(t testing.TB, kappa, perShard, keyWords, valWords int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(1),
		WithMaxCriticalSteps(CacheCriticalSteps(perShard, keyWords, valWords)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCacheBasic(t *testing.T) {
	m := cacheManager(t, 2, 16, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(4), WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.Capacity() != 64 {
		t.Fatalf("shape = (%d, %d), want (4, 64)", c.Shards(), c.Capacity())
	}
	if c.TTL() != 0 {
		t.Fatalf("TTL = %v, want 0", c.TTL())
	}
	const n = 20
	for k := uint64(0); k < n; k++ {
		c.Put(k, k*10)
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := c.Get(k)
		if !ok || v != k*10 {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*10)
		}
	}
	if _, ok := c.Get(999); ok {
		t.Fatal("Get(999) found a missing key")
	}
	// Overwrite does not grow the cache.
	c.Put(3, 42)
	if v, _ := c.Get(3); v != 42 {
		t.Fatalf("overwritten Get(3) = %d, want 42", v)
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len after overwrite = %d, want %d", got, n)
	}
	if !c.Delete(3) {
		t.Fatal("Delete(3) = false, want true")
	}
	if c.Delete(3) {
		t.Fatal("second Delete(3) = true, want false")
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("Get(3) found a deleted key")
	}
	if got := c.Len(); got != n-1 {
		t.Fatalf("Len after delete = %d, want %d", got, n-1)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("Stats = hits %d misses %d, want both nonzero", st.Hits, st.Misses)
	}
}

func TestCacheOptionValidation(t *testing.T) {
	m := cacheManager(t, 2, 8, 1, 1)
	if _, err := NewCache[int, int](m, WithCacheShards(0)); err == nil {
		t.Fatal("WithCacheShards(0) accepted")
	}
	if _, err := NewCache[int, int](m, WithCapacity(-1)); err == nil {
		t.Fatal("WithCapacity(-1) accepted")
	}
	if _, err := NewCache[int, int](m, WithTTL(-time.Second)); err == nil {
		t.Fatal("WithTTL(-1s) accepted")
	}
	// Capacity splits across shards and rounds each share up to a power
	// of two: 12 entries over 4 shards → 3 per shard → 4 per shard.
	c, err := NewCache[int, int](m, WithCacheShards(3), WithCapacity(12))
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.Capacity() != 16 {
		t.Fatalf("rounded shape = (%d, %d), want (4, 16)", c.Shards(), c.Capacity())
	}
	// A manager whose T cannot cover the budget is rejected with the
	// required bound in the message.
	small, err := New(WithKappa(2), WithMaxCriticalSteps(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache[int, int](small, WithCapacity(1024)); err == nil {
		t.Fatal("NewCache accepted a manager with an insufficient T bound")
	}
}

// clockKeys reads a single-shard cache's bucket → key placement, so a
// test can name the entry the hand points at.
func clockKeys(c *Cache[uint64, uint64]) []uint64 {
	p := c.m.Acquire()
	defer c.m.Release(p)
	keys := make([]uint64, c.eng.Capacity())
	for b := range keys {
		keys[b] = c.eng.LoadKey(p.env, &c.eng.Shards[0], b)
	}
	return keys
}

// TestCacheLRUEviction is the exact audit of the replacement policy —
// CLOCK, the approximation of LRU that lets reads leave the lock — on a
// single-shard cache where every step is deterministic: which bucket
// each Put evicts, where the hand stops, whose second chance is used
// up, and Stats' hit/miss/eviction numbers.
func TestCacheLRUEviction(t *testing.T) {
	m := cacheManager(t, 2, 4, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, k*100)
	}
	hits := uint64(0)
	touch := func(keys ...uint64) {
		t.Helper()
		for _, k := range keys {
			if v, ok := c.Get(k); !ok || v != k*100 {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*100)
			}
			hits++
		}
	}
	// step puts a new key into the full shard and checks the sweep: the
	// entry in bucket victim goes, the new key takes its bucket, and the
	// hand stops one past it.
	step := func(k uint64, victim int) {
		t.Helper()
		gone := clockKeys(c)[victim]
		c.Put(k, k*100)
		if c.Contains(gone) {
			t.Fatalf("Put(%d): key %d in bucket %d survived, placement now %v", k, gone, victim, clockKeys(c))
		}
		if at := clockKeys(c)[victim]; at != k {
			t.Fatalf("Put(%d): bucket %d holds %d", k, victim, at)
		}
		if hand := Load(m, c.clock[0].hand); hand != uint64(victim+1)%4 {
			t.Fatalf("Put(%d): hand = %d, want %d", k, hand, (victim+1)%4)
		}
	}
	at := clockKeys(c)
	// Nothing referenced: the sweep takes the bucket under the hand.
	step(5, 0)
	// Buckets 1 and 2 referenced: the sweep passes over both and evicts 3.
	touch(at[1], at[2])
	step(6, 3)
	// The hand wrapped to bucket 0, where 5 was placed unreferenced.
	step(7, 0)
	// Bucket 1's second chance was used by the sweep that passed it.
	step(8, 1)
	// Everything referenced: a full revolution clears every bit and the
	// bucket under the hand (2) goes.
	touch(clockKeys(c)...)
	step(9, 2)
	// ...so nothing is referenced any more and the next bucket is next.
	step(10, 3)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if _, ok := c.Get(5); ok {
		t.Fatal("evicted key 5 still hits")
	}
	st := c.Stats()
	if st.Hits != hits || st.Misses != 1 || st.Evictions != 6 || st.Expirations != 0 {
		t.Fatalf("Stats = hits %d misses %d evictions %d expirations %d, want %d/1/6/0",
			st.Hits, st.Misses, st.Evictions, st.Expirations, hits)
	}
	if want := float64(hits) / float64(hits+1); st.HitRate != want {
		t.Fatalf("HitRate = %v, want %v", st.HitRate, want)
	}
}

// TestCacheCapacityOne exercises the degenerate single-bucket shard,
// where every insert of a new key evicts and the hand never moves.
func TestCacheCapacityOne(t *testing.T) {
	m := cacheManager(t, 2, 1, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	c.Put(1, 10)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d, %v)", v, ok)
	}
	c.Put(2, 20)
	if _, ok := c.Get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
	if v, ok := c.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = (%d, %v)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if !c.Delete(2) || c.Len() != 0 {
		t.Fatal("delete on capacity-1 cache failed")
	}
	c.Put(3, 30)
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) after refill = (%d, %v)", v, ok)
	}
}

func TestCacheTTL(t *testing.T) {
	m := cacheManager(t, 2, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(8),
		WithTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	if c.TTL() != time.Second {
		t.Fatalf("TTL = %v, want 1s", c.TTL())
	}
	c.Put(1, 100)
	c.Put(2, 200)
	// Before the deadline both entries are live.
	clock.Add(uint64(time.Second.Nanoseconds()) - 10)
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("fresh Get(1) = (%d, %v)", v, ok)
	}
	// Refresh key 1's deadline by overwriting, then cross key 2's.
	c.Put(1, 101)
	clock.Add(20)
	if _, ok := c.Get(2); ok {
		t.Fatal("expired Get(2) returned a value")
	}
	if v, ok := c.Get(1); !ok || v != 101 {
		t.Fatalf("refreshed Get(1) = (%d, %v)", v, ok)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len after expiry = %d, want 1", got)
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Misses != 1 {
		t.Fatalf("Stats = expirations %d misses %d, want 1/1", st.Expirations, st.Misses)
	}
	// An expired entry's bucket is reusable.
	c.Put(2, 201)
	if v, ok := c.Get(2); !ok || v != 201 {
		t.Fatalf("reinserted Get(2) = (%d, %v)", v, ok)
	}
}

func TestCacheGetOrCompute(t *testing.T) {
	m := cacheManager(t, 4, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(2), WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	v := c.GetOrCompute(7, func() uint64 { calls++; return 700 })
	if v != 700 || calls != 1 {
		t.Fatalf("first GetOrCompute = %d (calls %d), want 700 (1)", v, calls)
	}
	v = c.GetOrCompute(7, func() uint64 { calls++; return 999 })
	if v != 700 || calls != 1 {
		t.Fatalf("cached GetOrCompute = %d (calls %d), want 700 (1)", v, calls)
	}
	// Concurrent misses on one key: every caller must return the same
	// value — the winner's — even though each computes its own candidate.
	const procs = 4
	var start, wg sync.WaitGroup
	start.Add(1)
	got := make([]uint64, procs)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			got[g] = c.GetOrCompute(42, func() uint64 { return 1000 + uint64(g) })
		}(g)
	}
	start.Done()
	wg.Wait()
	final, ok := c.Get(42)
	if !ok {
		t.Fatal("key 42 not installed")
	}
	for g, v := range got {
		if v != final {
			t.Fatalf("goroutine %d observed %d, cache holds %d — losers must adopt the winner's value",
				g, v, final)
		}
	}
}

// TestCacheGetOrComputeExpiredRace covers the install path finding an
// entry that expired between the initial probe and the install.
func TestCacheGetOrComputeExpiredRace(t *testing.T) {
	m := cacheManager(t, 2, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(8),
		WithTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	c.Put(1, 100)
	clock.Add(uint64(2 * time.Second.Nanoseconds()))
	// The entry is now expired: GetOrCompute must recompute, replace it
	// in place, and refresh the deadline.
	v := c.GetOrCompute(1, func() uint64 { return 111 })
	if v != 111 {
		t.Fatalf("GetOrCompute over expired entry = %d, want 111", v)
	}
	if v, ok := c.Get(1); !ok || v != 111 {
		t.Fatalf("Get(1) after recompute = (%d, %v), want (111, true)", v, ok)
	}
}

// TestCacheZipfHitRate drives the cache:zipf workload single-threaded
// with a fixed seed and audits the counters: hits+misses must equal the
// number of reads exactly, the hit rate must sit in the band the zipf
// head mass predicts for a cache holding a quarter of the keyspace, and
// a rerun with the same seed must reproduce the same counters.
func TestCacheZipfHitRate(t *testing.T) {
	ops := 8000
	if testing.Short() {
		ops = 3000
	}
	run := func() CacheStats {
		m, err := New(WithKappa(2), WithMaxLocks(1),
			WithMaxCriticalSteps(CacheCriticalSteps(8, 1, 1)),
			WithDelayConstants(1, 1), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCache[uint64, uint64](m, WithCacheShards(8), WithCapacity(64))
		if err != nil {
			t.Fatal(err)
		}
		sc := workload.LookupCacheScenario("cache:zipf")
		if sc == nil {
			t.Fatal("cache:zipf scenario missing")
		}
		st := workload.NewCacheOpStream(sc, 1)
		for i := 0; i < ops; i++ {
			kind, key := st.Next()
			k := uint64(key)
			switch kind {
			case workload.CacheGet:
				if v, ok := c.Get(k); ok && v != k*3 {
					t.Fatalf("Get(%d) = %d, want %d", k, v, k*3)
				}
			case workload.CachePut:
				c.Put(k, k*3)
			case workload.CacheDelete:
				c.Delete(k)
			}
		}
		return c.Stats()
	}
	st := run()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no reads recorded")
	}
	// The 64-entry cache holds the zipf head of a 256-key keyspace; at
	// skew 1.2 the top quarter carries ~80% of the draws, so the
	// steady-state hit rate must land well above uniform (25%) and
	// below perfect.
	if st.HitRate < 0.5 || st.HitRate > 0.98 {
		t.Fatalf("HitRate = %v, want within [0.5, 0.98]", st.HitRate)
	}
	if st.Len > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", st.Len)
	}
	// Same seed, same stream, same manager seed → identical counters.
	st2 := run()
	if st2.Hits != st.Hits || st2.Misses != st.Misses ||
		st2.Evictions != st.Evictions || st2.Expirations != st.Expirations {
		t.Fatalf("rerun diverged: %+v vs %+v", st2, st)
	}
}

// TestCacheConcurrent hammers one cache from several goroutines and
// checks invariants afterwards: values are always well-formed, the
// entry count never exceeds capacity, and the counters add up. Runs in
// -short; the race detector is the main assertion.
func TestCacheConcurrent(t *testing.T) {
	const (
		procs    = 4
		opsPer   = 40
		keyspace = 32
	)
	m := cacheManager(t, procs, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(4), WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := uint64((g*opsPer + i*7) % keyspace)
				switch i % 5 {
				case 0, 1:
					if v, ok := c.Get(k); ok && v != k*7+1 {
						t.Errorf("Get(%d) = %d, want %d", k, v, k*7+1)
					}
				case 2:
					c.Put(k, k*7+1)
				case 3:
					if v := c.GetOrCompute(k, func() uint64 { return k*7 + 1 }); v != k*7+1 {
						t.Errorf("GetOrCompute(%d) = %d, want %d", k, v, k*7+1)
					}
				case 4:
					c.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > c.Capacity() {
		t.Fatalf("Len = %d exceeds capacity %d", got, c.Capacity())
	}
	st := c.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Stats has %d shards, want 4", len(st.Shards))
	}
	var sum int
	var attempts uint64
	for _, s := range st.Shards {
		sum += s.Size
		attempts += s.Lock.Attempts
	}
	if sum != st.Len {
		t.Fatalf("shard sizes sum to %d, Stats.Len = %d", sum, st.Len)
	}
	if attempts == 0 {
		t.Fatal("no attempts recorded on any shard lock")
	}
	if st.Balance <= 0 || st.Balance > 1 {
		t.Fatalf("Balance = %v, want (0, 1]", st.Balance)
	}
	// Every surviving entry must round-trip with a well-formed value.
	for k := uint64(0); k < keyspace; k++ {
		if v, ok := c.Get(k); ok && v != k*7+1 {
			t.Fatalf("post-run Get(%d) = %d, want %d", k, v, k*7+1)
		}
	}
}

// TestCacheMultiWordValues exercises multi-word struct values through
// CodecFunc — eviction and insert must stay consistent when value
// writes span several idempotent words — plus TTL on the multi-word path.
func TestCacheMultiWordValues(t *testing.T) {
	type blob struct{ A, B, C uint64 }
	blobCodec := CodecFunc(3,
		func(b blob, dst []uint64) { dst[0], dst[1], dst[2] = b.A, b.B, b.C },
		func(src []uint64) blob { return blob{src[0], src[1], src[2]} })
	m := cacheManager(t, 2, 4, 1, 3)
	c, err := NewCacheOf[uint64, blob](m, IntegerCodec[uint64](), blobCodec,
		WithCacheShards(2), WithCapacity(8), WithTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		c.Put(i, blob{i, i * 2, i * 3})
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := c.Get(i)
		if !ok {
			// Up to half the keys may have been evicted depending on
			// shard assignment; evicted keys just miss.
			continue
		}
		if v != (blob{i, i * 2, i * 3}) {
			t.Fatalf("Get(%d) = %+v, torn multi-word value", i, v)
		}
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	got := c.GetOrCompute(100, func() blob { return blob{9, 8, 7} })
	if got != (blob{9, 8, 7}) {
		t.Fatalf("GetOrCompute = %+v", got)
	}
}

// TestCacheContains pins the peek contract: no reference mark, no
// expiry reclaim, no hit/miss accounting.
func TestCacheContains(t *testing.T) {
	m := cacheManager(t, 2, 4, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(4),
		WithTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, k*10)
	}
	if !c.Contains(1) || !c.Contains(4) {
		t.Fatal("Contains missed live entries")
	}
	if c.Contains(99) {
		t.Fatal("Contains found a missing key")
	}
	base := c.Stats()
	if c.Contains(1) == false {
		t.Fatal("Contains(1) flapped")
	}
	st := c.Stats()
	if st.Hits != base.Hits || st.Misses != base.Misses {
		t.Fatalf("Contains moved counters: hits %d→%d misses %d→%d",
			base.Hits, st.Hits, base.Misses, st.Misses)
	}
	// Contains must not mark an entry referenced: with every other entry
	// referenced by a Get, a Put into the full shard must evict the one
	// that was only peeked — which is not the one under the hand, so a
	// sweep that found every bit set would take a different entry.
	at := clockKeys(c)
	peeked := at[2]
	for _, k := range at {
		if k != peeked {
			c.Get(k)
		}
	}
	c.Contains(peeked)
	c.Put(5, 50)
	if c.Contains(peeked) {
		t.Fatal("the only unreferenced entry survived eviction — Contains marked it referenced")
	}
	if !c.Contains(at[0]) {
		t.Fatalf("key %d under the hand was evicted instead of the unreferenced one", at[0])
	}
	// An expired entry reports false but stays for a read to reclaim.
	clock.Add(uint64(2 * time.Second.Nanoseconds()))
	if c.Contains(5) {
		t.Fatal("Contains returned an expired entry")
	}
	if c.Len() != 4 {
		t.Fatalf("Contains reclaimed expired entries: Len = %d, want 4", c.Len())
	}
	if _, ok := c.Get(5); ok {
		t.Fatal("expired Get(5) hit")
	}
	if c.Len() != 3 {
		t.Fatalf("Get did not reclaim: Len = %d, want 3", c.Len())
	}
}

// TestCacheAll covers the lock-free iterator: full walk, expired
// entries skipped but not reclaimed, early break, and no recency bump.
func TestCacheAll(t *testing.T) {
	m := cacheManager(t, 2, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(2), WithCapacity(16),
		WithTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	want := map[uint64]uint64{}
	for k := uint64(0); k < 10; k++ {
		want[k] = k * 3
		c.Put(k, k*3)
	}
	got := map[uint64]uint64{}
	for k, v := range c.All() {
		got[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("All visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("All saw %d=%d, want %d", k, got[k], v)
		}
	}
	visits := 0
	for range c.All() {
		visits++
		break
	}
	if visits != 1 {
		t.Fatalf("early break: %d visits", visits)
	}
	// Expired entries are skipped but left in place.
	clock.Add(uint64(2 * time.Second.Nanoseconds()))
	count := 0
	for range c.All() {
		count++
	}
	if count != 0 {
		t.Fatalf("All yielded %d expired entries", count)
	}
	if c.Len() != 10 {
		t.Fatalf("All reclaimed entries: Len = %d, want 10", c.Len())
	}
}

// TestCacheAllUnderWriters runs the iterator against live Put traffic:
// the per-shard seqlock must never surface a torn key/value pairing
// (values are key*1000+gen with gen < 1000). Run with -race.
func TestCacheAllUnderWriters(t *testing.T) {
	const (
		writers  = 3
		keyspace = 12
		rounds   = 15
	)
	m := cacheManager(t, writers+1, 16, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(2), WithCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keyspace; k++ {
		c.Put(k, k*1000)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := uint64(1)
			for !stop.Load() {
				k := uint64((w*5 + int(gen)*3) % keyspace)
				c.Put(k, k*1000+gen%1000)
				gen++
			}
		}(w)
	}
	for i := 0; i < rounds; i++ {
		for k, v := range c.All() {
			if v/1000 != k {
				t.Errorf("torn snapshot: key %d carries value %d", k, v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestCachePutTTL(t *testing.T) {
	// A cache constructed WITHOUT WithTTL: Put entries never expire,
	// PutTTL entries do, and the first PutTTL is what arms the expiry
	// clock on reads.
	m := cacheManager(t, 2, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	c.Put(1, 100)
	c.PutTTL(2, 200, time.Second)
	c.PutTTL(3, 300, time.Minute)
	clock.Add(uint64(2 * time.Second.Nanoseconds()))
	if _, ok := c.Get(2); ok {
		t.Fatal("PutTTL entry survived its deadline")
	}
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("no-TTL entry = (%d, %v), want (100, true)", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != 300 {
		t.Fatalf("longer-TTL entry = (%d, %v), want (300, true)", v, ok)
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", st.Expirations)
	}
	// Non-positive ttl falls back to the cache default (here: none).
	c.PutTTL(4, 400, 0)
	clock.Add(uint64(time.Hour.Nanoseconds()))
	if v, ok := c.Get(4); !ok || v != 400 {
		t.Fatalf("PutTTL(0) entry = (%d, %v), want (400, true)", v, ok)
	}
}

func TestCachePutTTLOverridesDefault(t *testing.T) {
	// Under WithTTL, PutTTL overrides per entry in both directions.
	m := cacheManager(t, 2, 8, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(8),
		WithTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Uint64
	clock.Store(1)
	c.now = clock.Load
	c.Put(1, 100)                      // default 1s
	c.PutTTL(2, 200, 10*time.Second)   // longer than default
	c.PutTTL(3, 300, time.Millisecond) // shorter than default
	clock.Add(uint64(500 * time.Millisecond.Nanoseconds()))
	if _, ok := c.Get(3); ok {
		t.Fatal("short-TTL entry outlived its override")
	}
	clock.Add(uint64(time.Second.Nanoseconds()))
	if _, ok := c.Get(1); ok {
		t.Fatal("default-TTL entry outlived the default")
	}
	if v, ok := c.Get(2); !ok || v != 200 {
		t.Fatalf("long-TTL entry = (%d, %v), want (200, true)", v, ok)
	}
}

// TestCacheReadsMakeNoAttempts: on a quiescent cache a hit, a miss and a
// Contains are each a probe under the shard's version and nothing else —
// the manager's attempt counter stands still across all of them, while
// the hit/miss counters, bumped by the readers, stay exact.
func TestCacheReadsMakeNoAttempts(t *testing.T) {
	const n = 64
	m := cacheManager(t, 2, 16, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(4), WithCapacity(64), WithTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 32; k++ {
		c.Put(k, k+1)
	}
	before, base := m.Stats().Attempts, c.Stats()
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Get(i % 32); !ok || v != i%32+1 {
			t.Fatalf("Get(%d) = (%d, %v)", i%32, v, ok)
		}
		if _, ok := c.Get(1000 + i); ok {
			t.Fatalf("Get(%d) hit a key never stored", 1000+i)
		}
		if !c.Contains(i%32) || c.Contains(1000+i) {
			t.Fatalf("Contains wrong at %d", i)
		}
	}
	if got := m.Stats().Attempts; got != before {
		t.Fatalf("%d hits, misses and Contains made %d lock attempts, want 0", n, got-before)
	}
	if st := c.Stats(); st.Hits-base.Hits != n || st.Misses-base.Misses != n {
		t.Fatalf("counted %d hits and %d misses, want %d and %d", st.Hits-base.Hits, st.Misses-base.Misses, n, n)
	}
}

// sealed is a value that says which key it was stored under, in which
// round, and whether with a TTL, under a checksum: a reader can tell a
// value no Put stored (torn words), a value paired with another key,
// and a value returned past its deadline.
type sealed struct{ key, gen, round, ttl, sum uint64 }

func seal(key, gen, round, ttl uint64) sealed {
	return sealed{key, gen, round, ttl, key*31 + gen*17 + round*7 + ttl + 1}
}

var sealedCodec = CodecFunc(5,
	func(v sealed, dst []uint64) {
		dst[0], dst[1], dst[2], dst[3], dst[4] = v.key, v.gen, v.round, v.ttl, v.sum
	},
	func(src []uint64) sealed { return sealed{src[0], src[1], src[2], src[3], src[4]} })

// TestCacheReadersNeverTorn races lock-free readers against Put, PutTTL,
// Delete and eviction on one small shard, so every bucket keeps changing
// hands between immortal entries, entries that will expire, and entries
// that already have. The clock only moves between rounds, at quiescence:
// an entry stored with a TTL is live for the rest of its round and dead
// in every later one. A hit must return a value some Put stored under
// that key (checksum and key agree), and never a TTL'd value of an
// earlier round — which is what a reader would return if it paired a
// dead entry's value with the empty deadline of the entry that replaced
// it. Run with -race.
func TestCacheReadersNeverTorn(t *testing.T) {
	const (
		writers  = 2
		readers  = 2
		keyspace = 24
		rounds   = 3
		opsPer   = 150
		roundNs  = 1000
	)
	m := cacheManager(t, writers+readers, 8, 1, 5)
	c, err := NewCacheOf[uint64, sealed](m, IntegerCodec[uint64](), sealedCodec, WithCacheShards(1), WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	var round atomic.Uint64
	c.now = func() uint64 { return round.Load() * roundNs }
	check := func(k uint64, v sealed, r uint64) {
		if v != seal(v.key, v.gen, v.round, v.ttl) || v.key != k {
			t.Errorf("round %d: Get(%d) = %+v: no Put stored that under this key", r, k, v)
		}
		if v.ttl == 1 && v.round < r {
			t.Errorf("round %d: Get(%d) returned %+v, expired since round %d", r, k, v, v.round+1)
		}
	}
	for r := uint64(1); r <= rounds; r++ {
		round.Store(r)
		var stop atomic.Bool
		var wwg, rwg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				for i := 0; i < opsPer; i++ {
					k := uint64((w*7 + i*5) % keyspace)
					switch i % 4 {
					case 0, 1:
						c.Put(k, seal(k, uint64(i), r, 0))
					case 2:
						c.PutTTL(k, seal(k, uint64(i), r, 1), roundNs/2)
					case 3:
						c.Delete(uint64((w*7 + i*11) % keyspace))
					}
				}
			}(w)
		}
		for g := 0; g < readers; g++ {
			rwg.Add(1)
			go func(g int) {
				defer rwg.Done()
				for i := 0; !stop.Load(); i++ {
					k := uint64((g*3 + i) % keyspace)
					if v, ok := c.Get(k); ok {
						check(k, v, r)
					}
					c.Contains(k)
				}
			}(g)
		}
		wwg.Wait()
		stop.Store(true)
		rwg.Wait()
	}
	if st := c.Stats(); st.Evictions == 0 || st.Len > 8 {
		t.Fatalf("evictions %d, Len %d: the shard was never under pressure or overflowed", st.Evictions, st.Len)
	}
}

// TestCacheStalledWriterIsHelped: a Put stalls inside its section with
// the shard's version odd. A Get on that shard finds no stable bracket,
// takes the locked path within its bounded tries, and on its way to its
// own section finishes the stalled one — so it returns, the stalled
// write is visible, and the version is even again, all while the writer
// is still stalled.
func TestCacheStalledWriterIsHelped(t *testing.T) {
	m := cacheManager(t, 4, 8, 1, 1)
	vc := blockFirstCodec{first: new(atomic.Bool), entered: make(chan struct{}), gate: make(chan struct{})}
	vc.first.Store(true) // disarmed while the cache is filled
	c, err := NewCacheOf[uint64, uint64](m, IntegerCodec[uint64](), vc, WithCacheShards(1), WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, k*10)
	}
	vc.first.Store(false)
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		c.Put(1, 111)
	}()
	<-vc.entered
	ver := func() uint64 {
		p := m.Acquire()
		defer m.Release(p)
		return c.eng.Shards[0].Ver.Load(p.env)
	}
	if v := ver(); v&1 == 0 {
		t.Fatalf("version %d is even with a writer stalled mid-section", v)
	}
	before := m.Stats().Attempts
	got := make(chan uint64, 1)
	go func() {
		v, _ := c.Get(2)
		got <- v
	}()
	select {
	case v := <-got:
		if v != 20 {
			t.Fatalf("Get(2) behind a stalled writer = %d, want 20", v)
		}
	case <-stalled:
		t.Fatal("stalled writer returned before its gate opened")
	case <-time.After(10 * time.Second):
		t.Fatal("Get(2) did not return while a writer was stalled on its shard")
	}
	if m.Stats().Attempts == before {
		t.Fatal("the reader made no lock attempt with the version odd")
	}
	// The stalled section ran to its end on the reader's goroutine.
	if v := ver(); v&1 == 1 {
		t.Fatalf("version %d still odd after the reader's section", v)
	}
	if v, ok := c.Get(1); !ok || v != 111 {
		t.Fatalf("Get(1) = (%d, %v), want the stalled writer's 111", v, ok)
	}
	close(vc.gate)
	<-stalled
	if v, ok := c.Get(1); !ok || v != 111 || c.Len() != 4 {
		t.Fatalf("after the writer returned: Get(1) = (%d, %v), Len %d; want 111, 4", v, ok, c.Len())
	}
}

// TestCacheEvictionReplaysSameVictim is the determinism hazard of
// keeping recency outside the cells: a helper re-executing an evicting
// Put's body must issue the same operations as the first run, whatever
// readers did to the reference bits in between. The body is executed
// twice as one idem.Exec with every bit flipped between the runs; a
// sweep that read the live bits would pick bucket 0 the second time,
// write a different bucket, and idem would panic on the replayed log.
func TestCacheEvictionReplaysSameVictim(t *testing.T) {
	m := cacheManager(t, 2, 4, 1, 1)
	c, err := NewCache[uint64, uint64](m, WithCacheShards(1), WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, k*100)
	}
	at := clockKeys(c)
	c.Get(at[0]) // the hand's bucket is referenced: the sweep passes it and takes bucket 1
	sh := &c.clock[0]
	p, q := m.Acquire(), m.Acquire()
	defer m.Release(p)
	defer m.Release(q)
	body, word := c.storeSection(p, 0, c.eng.HashIn(p.env, 5), 5, 500, 0, 0, nil)
	x := idem.NewExec(body.RunThunk, c.opBudget)
	x.Execute(p.env)
	first := word.Load()
	sh.ref[0].Store(^sh.ref[0].Load())
	x.Execute(q.env)
	if word.Load() != first || int(uint32(first)) != 1 {
		t.Fatalf("runs published %#x then %#x, want bucket 1 both times", first, word.Load())
	}
	if c.Contains(at[1]) || !c.Contains(at[0]) || !c.Contains(5) || c.Len() != 4 {
		t.Fatalf("placement %v after evicting from %v: want 5 in bucket 1", clockKeys(c), at)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d after two runs of one section, want 1", st.Evictions)
	}
}
