package main

import (
	"fmt"
	"runtime"

	"wflocks"
)

// structs-raw: W goroutines, raw regime. One op is a fixed round over
// all five structures, each on its own manager sized by its documented
// *CriticalSteps helper. Closure and result-cell overhead, arena bytes
// and the uncontended fast path dominate here; delays and helping are
// under 1 % of attempts.
const (
	structsPoolShards = 8
	structsPoolCap    = 1024
	structsPoolBatch  = 8 // the pool's default batch, which its budget helper prices

	structsCacheKeys   = 4096
	structsCacheCap    = 1024
	structsCacheShards = 8
	structsZipfS       = 1.1

	structsMapKeys   = 4096
	structsMapShards = 8
	structsMapGets   = 4

	structsTxnKeys    = 1024
	structsTxnShards  = 8
	structsTxnBalance = 100

	structsLogShards  = 8
	structsLogCap     = 1024
	structsLogSegment = 64
	structsLogBatch   = 8 // the log's default batch
)

// cacheValue is the deterministic value of a cache key: every hit must
// return it.
func cacheValue(k uint64) uint64 { return k*0x9e3779b97f4a7c15 + 1 }

// logSeqBits splits a log entry into its producer (high bits) and that
// producer's sequence number, counted from 1.
const logSeqBits = 56

// tally is an order-free digest of a set of sequence numbers: equal
// tallies of 1..n mean each number was seen exactly once.
type tally struct{ n, sum, sq uint64 }

func (t *tally) add(seq uint64) {
	t.n++
	t.sum += seq
	t.sq += seq * seq
}

// structsGen is one generator's tallies for the audits, kept for the
// whole run, warm-up included.
type structsGen struct {
	enqSum, deqSum uint64
	enqs, deqs     uint64
	updates        uint64
	appended       tally   // what this producer appended
	seen           []tally // what this generator's cursor delivered, per producer
	cursor         *wflocks.Cursor[uint64]
}

type structsInst struct {
	pool  *wflocks.WorkPool[uint64]
	cache *wflocks.Cache[uint64, uint64]
	mp    *wflocks.Map[uint64, uint64]
	txn   *wflocks.Map[uint64, uint64]
	lg    *wflocks.Log[uint64]
	zipf  *zipf
	gs    []*structsGen
}

func newManager(procs, maxLocks, maxCritical int, metrics bool) (*wflocks.Manager, error) {
	opts := []wflocks.Option{
		wflocks.WithUnknownBounds(procs),
		wflocks.WithMaxLocks(maxLocks),
		wflocks.WithMaxCriticalSteps(maxCritical),
	}
	if metrics {
		opts = append(opts, wflocks.WithMetrics())
	}
	return wflocks.New(opts...)
}

func setupStructs(c setupCfg) (*instance, error) {
	procs := c.W + 2
	mapCap := 2 * structsMapKeys / structsMapShards
	txnCap := 2 * structsTxnKeys / structsTxnShards
	budgets := []struct{ maxLocks, maxCritical int }{
		{2, wflocks.WorkPoolCriticalSteps(1, structsPoolBatch)}, // 2: the steal path
		{1, wflocks.CacheCriticalSteps(structsCacheCap/structsCacheShards, 1, 1)},
		{1, wflocks.MapCriticalSteps(mapCap, 1, 1)},
		{2, wflocks.MapAtomicSteps(txnCap, 1, 1, 2)},
		{2, wflocks.LogCriticalSteps(1, structsLogBatch, c.W, structsLogSegment)}, // 2: shard lock + cursor lock
	}
	mgrs := make([]*wflocks.Manager, len(budgets))
	for i, b := range budgets {
		m, err := newManager(procs, b.maxLocks, b.maxCritical, c.metrics)
		if err != nil {
			return nil, fmt.Errorf("structs-raw: manager %d: %w", i, err)
		}
		mgrs[i] = m
	}
	s := &structsInst{zipf: newZipf(newRand(c, 0), structsCacheKeys, structsZipfS)}
	var err error
	if s.pool, err = wflocks.NewWorkPool[uint64](mgrs[0],
		wflocks.WithPoolShards(structsPoolShards), wflocks.WithPoolCapacity(structsPoolCap)); err != nil {
		return nil, err
	}
	if s.cache, err = wflocks.NewCache[uint64, uint64](mgrs[1],
		wflocks.WithCacheShards(structsCacheShards), wflocks.WithCapacity(structsCacheCap)); err != nil {
		return nil, err
	}
	if s.mp, err = wflocks.NewMap[uint64, uint64](mgrs[2],
		wflocks.WithShards(structsMapShards), wflocks.WithShardCapacity(mapCap)); err != nil {
		return nil, err
	}
	if s.txn, err = wflocks.NewMap[uint64, uint64](mgrs[3],
		wflocks.WithShards(structsTxnShards), wflocks.WithShardCapacity(txnCap)); err != nil {
		return nil, err
	}
	if s.lg, err = wflocks.NewLog[uint64](mgrs[4], wflocks.WithLogShards(structsLogShards),
		wflocks.WithLogCapacity(structsLogCap), wflocks.WithLogSegment(structsLogSegment),
		wflocks.WithLogConsumers(c.W)); err != nil {
		return nil, err
	}
	for k := uint64(0); k < structsMapKeys; k++ {
		if err := s.mp.Put(k, 0); err != nil {
			return nil, fmt.Errorf("structs-raw: map prefill: %w", err)
		}
	}
	for k := uint64(0); k < structsTxnKeys; k++ {
		if err := s.txn.Put(k, structsTxnBalance); err != nil {
			return nil, fmt.Errorf("structs-raw: txn prefill: %w", err)
		}
	}
	inst := &instance{mgrs: mgrs, tables: s.tables, counts: s.counts, audit: s.audit,
		close: func() error { return nil }}
	for i := 0; i < c.W; i++ {
		cur, err := s.lg.NewCursor()
		if err != nil {
			return nil, fmt.Errorf("structs-raw: cursor %d: %w", i, err)
		}
		sg := &structsGen{seen: make([]tally, c.W), cursor: cur}
		s.gs = append(s.gs, sg)
		rng := newRand(c, i+1)
		inst.gens = append(inst.gens, func(g *gen) {
			g.closedLoop(c.latEvery, func(round uint64) uint64 {
				tr := &g.tr
				var bad uint64

				v := rng.Uint64()
				t := tr.now()
				for !s.pool.TryEnqueue(v) {
					runtime.Gosched()
				}
				t = tr.lap(kPoolEnq, round, t)
				sg.enqs++
				sg.enqSum += v
				var x uint64
				for ok := false; !ok; {
					// Every generator enqueues before it dequeues, so the pool
					// holds an element; an empty answer is a shard scan that
					// raced a steal, and the next scan finds it.
					x, ok = s.pool.TryDequeue()
				}
				tr.lap(kPoolDeq, round, t)
				sg.deqs++
				sg.deqSum += x

				k := uint64(s.zipf.sample(rng))
				t = tr.now()
				got, ok := s.cache.Get(k)
				t = tr.lap(kCacheGet, round, t)
				if !ok {
					s.cache.Put(k, cacheValue(k))
					tr.lap(kCachePut, round, t)
				} else if got != cacheValue(k) {
					bad++
				}

				for j := 0; j < structsMapGets; j++ {
					k := rng.Uint64N(structsMapKeys)
					t = tr.now()
					_, ok := s.mp.Get(k)
					tr.lap(kMapGet, round, t)
					if !ok {
						bad++
					}
				}
				k = rng.Uint64N(structsMapKeys)
				t = tr.now()
				err := s.mp.Update(k, func(old uint64, _ bool) (uint64, bool) { return old + 1, true })
				tr.lap(kMapUpdate, round, t)
				if err != nil {
					bad++
				} else {
					sg.updates++
				}

				keys := drawDistinct(rng, 2, structsTxnKeys)
				t = tr.now()
				err = s.txn.Atomic(keys, transferBody)
				tr.lap(kTxnL2, round, t)
				if err != nil {
					bad++
				}

				entry := uint64(g.id)<<logSeqBits | (sg.appended.n + 1)
				t = tr.now()
				for !s.lg.TryAppend(entry) {
					// Full: the slowest cursor is a whole ring behind. Drain
					// ours and let the others run.
					sg.drain(tr, round)
					runtime.Gosched()
					t = tr.now()
				}
				tr.lap(kLogAppend, round, t)
				sg.appended.add(sg.appended.n + 1)
				sg.drain(tr, round)
				return bad
			})
		})
	}
	return inst, nil
}

// transferBody moves one unit from every later key to the first, the
// repo's BenchmarkTxn body: the sum over all keys never changes.
func transferBody(tx *wflocks.MapTxn[uint64, uint64]) {
	ks := tx.Keys()
	var gained uint64
	for _, k := range ks[1:] {
		if v, ok := tx.Get(k); ok && v > 0 {
			tx.Put(k, v-1)
			gained++
		}
	}
	v, _ := tx.Get(ks[0])
	tx.Put(ks[0], v+gained)
}

// drain reads the generator's own cursor dry, tallying what it
// delivers per producer.
func (sg *structsGen) drain(tr *tracer, round uint64) {
	for {
		t := tr.now()
		e, ok := sg.cursor.TryNext()
		if !ok {
			return
		}
		tr.lap(kLogNext, round, t)
		sg.seen[e>>logSeqBits].add(e & (1<<logSeqBits - 1))
	}
}

func (s *structsInst) tables() (size, sumProbe, maxProbe int) {
	for _, sh := range s.mp.Stats().Shards {
		size, sumProbe, maxProbe = size+sh.Size, sumProbe+sh.SumProbe, max(maxProbe, sh.MaxProbe)
	}
	for _, sh := range s.txn.Stats().Shards {
		size, sumProbe, maxProbe = size+sh.Size, sumProbe+sh.SumProbe, max(maxProbe, sh.MaxProbe)
	}
	for _, sh := range s.cache.Stats().Shards {
		size, sumProbe, maxProbe = size+sh.Size, sumProbe+sh.SumProbe, max(maxProbe, sh.MaxProbe)
	}
	return size, sumProbe, maxProbe
}

func (s *structsInst) counts() map[string]uint64 {
	cs, ps, ls := s.cache.Stats(), s.pool.Stats(), s.lg.Stats()
	return map[string]uint64{
		"cache.hits": cs.Hits, "cache.misses": cs.Misses, "cache.evictions": cs.Evictions,
		"pool.steals": ps.Steals, "pool.empty": ps.EmptyRejects,
		"log.full": ls.FullRejects,
	}
}

func (s *structsInst) audit() []string {
	var enqs, deqs, enqSum, deqSum, updates uint64
	appended := make([]tally, len(s.gs))
	for i, sg := range s.gs {
		enqs, deqs = enqs+sg.enqs, deqs+sg.deqs
		enqSum, deqSum = enqSum+sg.enqSum, deqSum+sg.deqSum
		updates += sg.updates
		appended[i] = sg.appended
	}
	out := auditPool(enqs, deqs, enqSum, deqSum, s.pool.Len())

	var counters, balances uint64
	for _, v := range s.mp.All() {
		counters += v
	}
	for _, v := range s.txn.All() {
		balances += v
	}
	out = append(out, auditSum("map counters", counters, updates)...)
	out = append(out, auditSum("transfer balances", balances, structsTxnKeys*structsTxnBalance)...)

	// Every generator has returned, so each cursor can be read dry here;
	// after that it must have delivered every producer's entries once.
	for c, sg := range s.gs {
		sg.drain(&tracer{}, 0)
		out = append(out, auditLog(c, sg.seen, appended)...)
	}
	return out
}
