package bench

import (
	"fmt"
	"sync"

	"wflocks"
	"wflocks/internal/env"
	"wflocks/internal/stats"
	"wflocks/internal/workload"
)

// Map family: drives a workload.MapScenario against the wfmap
// subsystem and against a sync.Mutex-sharded baseline, sweeping the
// shard count. Two effects make wfmap throughput scale with shards:
// per-lock contention drops (higher per-attempt success probability),
// and the per-shard bucket region shrinks, which shortens the
// worst-case critical section T and with it the attempts' fixed
// O(κ²L²T) delays.

// MutexMap is the blocking baseline: a sync.Mutex-sharded map with the
// same shard-selection hash as wfmap. It makes no wait-freedom or
// fairness promises — a stalled holder blocks its whole shard.
type MutexMap struct {
	shards []mutexShard
	mask   uint64
}

type mutexShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
	_  [40]byte // pad to a cache line so shard mutexes do not false-share
}

// NewMutexMap creates a baseline map with the given shard count
// (rounded up to a power of two).
func NewMutexMap(shardCount int) *MutexMap {
	n := nextPow2(shardCount)
	mm := &MutexMap{shards: make([]mutexShard, n), mask: uint64(n - 1)}
	for i := range mm.shards {
		mm.shards[i].m = make(map[uint64]uint64)
	}
	return mm
}

// shardIndex uses the same SplitMix64 mixing family as wfmap's hash
// (seed 0, vs wfmap's manager-derived seed), so the two shard
// assignments are statistically equivalent but not identical; the
// balance columns in the scenario tables describe each
// implementation's own observed shard traffic.
func (mm *MutexMap) shardIndex(k uint64) uint64 {
	return env.Mix(0, k) & mm.mask
}

func (mm *MutexMap) shard(k uint64) *mutexShard {
	return &mm.shards[mm.shardIndex(k)]
}

// Get returns the value stored for k.
func (mm *MutexMap) Get(k uint64) (uint64, bool) {
	sh := mm.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

// Put stores v for k.
func (mm *MutexMap) Put(k, v uint64) {
	sh := mm.shard(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// Delete removes k, reporting whether it was present.
func (mm *MutexMap) Delete(k uint64) bool {
	sh := mm.shard(k)
	sh.mu.Lock()
	_, ok := sh.m[k]
	delete(sh.m, k)
	sh.mu.Unlock()
	return ok
}

// Len reports the entry count.
func (mm *MutexMap) Len() int {
	n := 0
	for i := range mm.shards {
		sh := &mm.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// KV is the surface the map and cache operation mixes drive; the
// wait-free structures and their blocking baselines all provide it.
type KV interface {
	Get(k uint64) (uint64, bool)
	Put(k, v uint64)
	Delete(k uint64) bool
}

// WfMap is a wflocks.Map as a KV and as a TxnMap.
type WfMap struct {
	*wflocks.Map[uint64, uint64]
}

// Put stores v for k. ErrMapFull is impossible by construction
// (capacity 2× the keyspace) short of extreme hash skew; it is treated
// as a dropped op rather than failing the run.
func (m WfMap) Put(k, v uint64) { _ = m.Map.Put(k, v) }

// NewWfMap builds a wfmap over a keyspace of keys at the given shard
// count, on its own manager under delay variant v sized for l-key
// transactions (WithMaxLocks(l), T = MapAtomicSteps(cap, 1, 1, l) —
// which at l = 1 is the single-key MapCriticalSteps), values drawing
// from sp. Total capacity is fixed at 2× the keyspace, split across
// shards, so a shard sweep holds the aggregate structure constant
// while the per-shard region (and hence T) shrinks as shards grow.
// procs bounds the goroutines that will contend (see NewManager).
func NewWfMap(v Variant, procs, keys, shards, l int, sp *StallPoint, extra ...wflocks.Option) (WfMap, *wflocks.Manager, error) {
	capPerShard := nextPow2(2 * keys / shards)
	m, err := NewManager(v, procs, l, wflocks.MapAtomicSteps(capPerShard, 1, 1, l), extra...)
	if err != nil {
		return WfMap{}, nil, err
	}
	mp, err := wflocks.NewMapOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), valueCodec(sp),
		wflocks.WithShards(shards), wflocks.WithShardCapacity(capPerShard))
	return WfMap{mp}, m, err
}

// PrefillMap stores the lower half of the scenario's keyspace, so a
// uniform read hits half the time, and checks that every key took.
func PrefillMap(sc *workload.MapScenario, kv KV) error {
	for k := uint64(0); k < uint64(sc.Keys/2); k++ {
		kv.Put(k, k)
		if _, ok := kv.Get(k); !ok {
			return fmt.Errorf("%s: prefill lost key %d", sc.Name, k)
		}
	}
	return nil
}

// MapWorker returns goroutine w's operation over kv: each call draws
// one op from the scenario's mix and applies it; i is the caller's
// iteration count, the value a put stores.
func MapWorker(sc *workload.MapScenario, kv KV, w int) func(i int) error {
	st := workload.NewMapOpStream(sc, workerSeed(w))
	return func(i int) error {
		kind, key := st.Next()
		k := uint64(key)
		switch kind {
		case workload.MapGet:
			kv.Get(k)
		case workload.MapPut:
			kv.Put(k, uint64(i))
		case workload.MapDelete:
			kv.Delete(k)
		}
		return nil
	}
}

// mapFamily compares wfmap (under each delay variant) with the mutex
// baseline across the shard sweep: throughput, per-attempt success
// rate and shard balance. Raw regime only — map values are plain
// words, with no codec to plant a stall in.
func mapFamily(sc *workload.MapScenario, scale Scale, variants []Variant) (*family, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	workers := workersAtLeast(4)
	opsPer := scale.pick(200, 2000)
	ops := workers * opsPer
	f := &family{
		title: fmt.Sprintf("%s: %d%%/%d%%/%d%% get/put/delete, %d keys, skew %.1f, %d workers × %d ops",
			sc.Name, sc.GetPct, sc.PutPct, sc.DeletePct, sc.Keys, sc.Skew, workers, opsPer),
		header: append([]string{"impl", "shards", "ops/sec", "success", "attempts/op", "balance", "max/mean"}, obsHeader...),
		notes: []string{
			"adaptive rows use WithUnknownBounds: delays track point contention (the recommended default); known rows pay the fixed c·κ²L²T delays",
			"uncontended attempts skip delays entirely via the fast path in both regimes; sharding shrinks both κ per lock and T",
			"balance is Jain's index over per-shard lock attempts (1.0 = even traffic)",
		},
		obs: true,
	}
	for _, v := range variants {
		for _, shards := range shardSweep {
			f.add(func(*StallPoint) (*instance, error) {
				mp, m, err := NewWfMap(v, workers, sc.Keys, shards, 1, nil, wflocks.WithMetrics())
				if err == nil {
					err = PrefillMap(sc, mp)
				}
				if err != nil {
					return nil, err
				}
				return &instance{
					mgrs: []*wflocks.Manager{m},
					run: func() error {
						return runWorkers(workers, opsPer, func(w int) func(int) error { return MapWorker(sc, mp, w) })
					},
					cols: func(r measured) []string {
						success, attemptsPer := r.attemptCols(uint64(ops))
						ms := mp.Stats()
						return []string{r.perSec(ops), success, attemptsPer,
							fmt.Sprintf("%.3f", ms.Balance), fmt.Sprintf("%.2f", ms.MaxOverMean)}
					},
				}, nil
			}, "wfmap/"+string(v), fmt.Sprint(shards))
		}
	}
	for _, shards := range shardSweep {
		f.add(func(*StallPoint) (*instance, error) {
			mm := NewMutexMap(shards)
			if err := PrefillMap(sc, mm); err != nil {
				return nil, err
			}
			return &instance{
				run: func() error {
					return runWorkers(workers, opsPer, func(w int) func(int) error { return MapWorker(sc, mm, w) })
				},
				cols: func(r measured) []string {
					// sync.Mutex keeps no contention counters, so the
					// baseline's balance columns describe the shard traffic
					// its workers issued: replay their op streams.
					counts := make([]uint64, len(mm.shards))
					for w := 0; w < workers; w++ {
						st := workload.NewMapOpStream(sc, workerSeed(w))
						for i := 0; i < opsPer; i++ {
							_, key := st.Next()
							counts[mm.shardIndex(uint64(key))]++
						}
					}
					d := stats.NewShardDist(counts)
					return []string{r.perSec(ops), "-", "-",
						fmt.Sprintf("%.3f", d.Jain), fmt.Sprintf("%.2f", d.MaxOverMean)}
				},
			}, nil
		}, "mutex", fmt.Sprint(shards))
	}
	return f, nil
}
