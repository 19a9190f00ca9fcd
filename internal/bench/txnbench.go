package bench

import (
	"fmt"
	"sort"

	"wflocks"
	"wflocks/internal/env"
	"wflocks/internal/workload"
)

// Transaction family: drives a workload.TxnScenario against wfmap's
// multi-key Atomic path and against a sorted-multi-mutex baseline, sweeping the keys-per-transaction count L. This is the
// benchmark where the paper's L-dependence is visible end to end: every
// wfmap attempt pays fixed delays proportional to κ²L²T (and T itself
// grows with L, since the transaction budget is L single-shard
// budgets), buying wait-freedom and helping in exchange. The honest
// comparison therefore runs both regimes:
//
//   - raw: the blocking baseline wins, increasingly so at higher L —
//     the κ²L²·(L·budget) delay product is the documented price of the
//     guarantees, not an implementation accident;
//   - holder-stall (the paper's regime): lock holders stall
//     mid-critical-section. A stalled multi-mutex holder blocks every
//     transaction sharing any of its shards for the stall; a stalled
//     wfmap transaction is helped — competitors re-execute its body
//     and move on — so stalls overlap instead of serializing.
//
// Every run audits conservation: transfers move value between keys, so
// the keyspace sum must be exactly what prefill deposited, on both
// implementations, or the run fails.

// txnLCounts is the keys-per-transaction sweep.
var txnLCounts = []int{1, 2, 4, 8}

// txnWorkers pins the driver goroutine count. It is deliberately small:
// κ must cover every concurrent attempt, and the wait-free attempts'
// fixed delays grow with κ² — a large worker pool would measure the
// calibration margin, not the structure.
const txnWorkers = 4

// txnInitial is the per-key prefill every transfer conserves.
const txnInitial = 100

// MultiMutexMap is the blocking baseline for multi-key transactions: a
// sync.Mutex-sharded map whose Atomic acquires the deduplicated shard
// mutexes in sorted order (the classic deadlock-avoidance protocol) and
// holds them all for the duration of the body. A stalled holder blocks
// every shard it holds.
type MultiMutexMap struct {
	shards []mutexShard
	mask   uint64
	stall  *StallPoint
}

// NewMultiMutexMap creates a baseline map with the given shard count
// (rounded up to a power of two). stall, which may be nil, is drawn
// once per value write while the shard mutexes are held, mirroring
// wfmap's in-critical-section value encodes.
func NewMultiMutexMap(shardCount int, stall *StallPoint) *MultiMutexMap {
	n := nextPow2(shardCount)
	mm := &MultiMutexMap{shards: make([]mutexShard, n), mask: uint64(n - 1), stall: stall}
	for i := range mm.shards {
		mm.shards[i].m = make(map[uint64]uint64)
	}
	return mm
}

// shardIndex uses the same SplitMix64 mixing family as wfmap's hash.
func (mm *MultiMutexMap) shardIndex(k uint64) uint64 {
	return env.Mix(0, k) & mm.mask
}

// Put stores v for k under its single shard mutex (prefill path).
func (mm *MultiMutexMap) Put(k, v uint64) {
	sh := &mm.shards[mm.shardIndex(k)]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// Sum reads the whole map (quiescent; conservation audits).
func (mm *MultiMutexMap) Sum() uint64 {
	total := uint64(0)
	for i := range mm.shards {
		sh := &mm.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			total += v
		}
		sh.mu.Unlock()
	}
	return total
}

// Atomic locks the keys' deduplicated shard mutexes in sorted order,
// runs fn with direct get/put access, and unlocks in reverse. fn's
// value writes draw from the stall point while every lock is held —
// the regime where blocking designs serialize their stalls.
func (mm *MultiMutexMap) Atomic(keys []uint64, fn func(get func(uint64) (uint64, bool), put func(uint64, uint64))) {
	shards := make([]int, 0, len(keys))
	for _, k := range keys {
		si := int(mm.shardIndex(k))
		dup := false
		for _, have := range shards {
			if have == si {
				dup = true
				break
			}
		}
		if !dup {
			shards = append(shards, si)
		}
	}
	sort.Ints(shards)
	for _, si := range shards {
		mm.shards[si].mu.Lock()
	}
	fn(
		func(k uint64) (uint64, bool) {
			v, ok := mm.shards[mm.shardIndex(k)].m[k]
			return v, ok
		},
		func(k, v uint64) {
			mm.stall.Hit()
			mm.shards[mm.shardIndex(k)].m[k] = v
		},
	)
	for i := len(shards) - 1; i >= 0; i-- {
		mm.shards[shards[i]].mu.Unlock()
	}
}

// TxnShards is the shard count of both implementations in the sweep
// (fixed so L, not the shard layout, is the swept variable).
const TxnShards = 8

// TxnBody is a transaction body over direct get/put access to the
// locked keys. keys is the transaction's own key list: a body must
// iterate it, never a buffer its caller reuses, because a straggling
// wait-free helper may re-execute the body after the caller has moved
// on to its next transaction.
type TxnBody func(keys []uint64, get func(uint64) (uint64, bool), put func(k, v uint64))

// TxnMap is the surface the transaction mix drives: a map that runs
// bodies atomically over key sets, with a single-key Put for prefill
// and a quiescent Sum for the conservation audit. WfMap and
// MutexTxnMap provide it.
type TxnMap interface {
	Atomic(keys []uint64, body TxnBody) error
	Put(k, v uint64)
	Sum() uint64
}

// Atomic runs body in one multi-lock critical section over keys.
func (m WfMap) Atomic(keys []uint64, body TxnBody) error {
	return m.Map.Atomic(keys, func(tx *wflocks.MapTxn[uint64, uint64]) {
		// The keys are prefilled and never deleted, so a put overwrites
		// in place and cannot report ErrMapFull.
		body(tx.Keys(), tx.Get, func(k, v uint64) { _ = tx.Put(k, v) })
	})
}

// Sum reads the whole map (quiescent; conservation audits).
func (m WfMap) Sum() uint64 {
	total := uint64(0)
	for _, v := range m.All() {
		total += v
	}
	return total
}

// MutexTxnMap is a MultiMutexMap as a TxnMap.
type MutexTxnMap struct {
	*MultiMutexMap
}

// Atomic runs body holding the keys' shard mutexes.
func (m MutexTxnMap) Atomic(keys []uint64, body TxnBody) error {
	m.MultiMutexMap.Atomic(keys, func(get func(uint64) (uint64, bool), put func(uint64, uint64)) {
		body(keys, get, put)
	})
	return nil
}

// PrefillTxn deposits txnInitial on every key of the scenario.
func PrefillTxn(sc *workload.TxnScenario, m TxnMap) {
	for k := 0; k < sc.Keys; k++ {
		m.Put(uint64(k), txnInitial)
	}
}

// transfer moves one unit from each of keys[1:] that has one to
// keys[0]. The credit write is unconditional so every L — including 1
// — writes at least one value per transaction (and draws the stall
// schedule).
func transfer(keys []uint64, get func(uint64) (uint64, bool), put func(k, v uint64)) {
	gained := uint64(0)
	for _, k := range keys[1:] {
		if v, ok := get(k); ok && v > 0 {
			put(k, v-1)
			gained++
		}
	}
	v, _ := get(keys[0])
	put(keys[0], v+gained)
}

// readAll reads every key of the transaction.
func readAll(keys []uint64, get func(uint64) (uint64, bool), _ func(k, v uint64)) {
	for _, k := range keys {
		get(k)
	}
}

// TxnWorker returns goroutine w's operation over m: each call draws one
// transaction of l keys from the scenario's mix and runs it.
func TxnWorker(sc *workload.TxnScenario, m TxnMap, l, w int) func(i int) error {
	st := workload.NewTxnOpStream(sc, l, workerSeed(w))
	keys := make([]uint64, l)
	return func(int) error {
		kind, drawn := st.Next()
		for j, k := range drawn {
			keys[j] = uint64(k)
		}
		if kind == workload.TxnTransfer {
			return m.Atomic(keys, transfer)
		}
		return m.Atomic(keys, readAll)
	}
}

// AuditTxn checks the transfer invariant at quiescence: the keyspace
// sum must equal what prefill deposited.
func AuditTxn(sc *workload.TxnScenario, m TxnMap) error {
	if got, want := m.Sum(), uint64(sc.Keys)*txnInitial; got != want {
		return fmt.Errorf("%s: conservation violated: sum %d, want %d", sc.Name, got, want)
	}
	return nil
}

// txnFamily compares wfmap Atomic (under each delay variant) with the
// sorted multi-mutex baseline across the L sweep, raw and stalled:
// throughput, per-attempt success rate and the conservation audit.
func txnFamily(sc *workload.TxnScenario, scale Scale, variants []Variant) (*family, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opsPer := scale.pick(50, 400)
	f := &family{
		title: fmt.Sprintf("%s: %d%%/%d%% transfer/read, %d keys, skew %.1f, %d workers × %d txns, L swept",
			sc.Name, sc.TransferPct, 100-sc.TransferPct, sc.Keys, sc.Skew, txnWorkers, opsPer),
		header: append([]string{"impl", "L", "stall", "txns/sec", "success", "attempts/txn", "conserved"}, obsHeader...),
		notes: []string{
			"each wfmap row runs its own manager sized for its L: WithMaxLocks(L), T = MapAtomicSteps(cap, 1, 1, L)",
			"adaptive rows use WithUnknownBounds delays that track point contention (the recommended default); known rows pay the fixed delays",
			"raw regime: the known-bounds delays grow as κ²L²·T(L) — the documented price of wait-freedom, steepest at L=8",
			"stall regime: holders stall mid-transaction (" + fmt.Sprintf("%v every %d value writes", StallDur, StallPeriod) + "); wfmap helpers absorb stalls, the sorted-mutex baseline serializes them across every held shard",
			"conserved audits the transfer invariant: the keyspace sum must equal the prefill exactly",
		},
		stall: true,
		obs:   true,
	}
	for _, v := range variants {
		for _, l := range txnLCounts {
			f.add(func(sp *StallPoint) (*instance, error) {
				mp, m, err := NewWfMap(v, txnWorkers, sc.Keys, TxnShards, l, sp, wflocks.WithMetrics())
				if err != nil {
					return nil, err
				}
				return txnInstance(sc, mp, l, opsPer, m), nil
			}, "wfmap/"+string(v), fmt.Sprint(l))
		}
	}
	for _, l := range txnLCounts {
		f.add(func(sp *StallPoint) (*instance, error) {
			return txnInstance(sc, MutexTxnMap{NewMultiMutexMap(TxnShards, sp)}, l, opsPer), nil
		}, "multimutex", fmt.Sprint(l))
	}
	return f, nil
}

// txnInstance is what every transaction row shares: the prefill, then
// txnWorkers symmetric workers each running opsPer transactions of l
// keys over m, then the conservation audit.
func txnInstance(sc *workload.TxnScenario, m TxnMap, l, opsPer int, mgrs ...*wflocks.Manager) *instance {
	PrefillTxn(sc, m)
	ops := txnWorkers * opsPer
	return &instance{
		mgrs: mgrs,
		run: func() error {
			return runWorkers(txnWorkers, opsPer, func(w int) func(int) error { return TxnWorker(sc, m, l, w) })
		},
		audit: func() error { return AuditTxn(sc, m) },
		cols: func(r measured) []string {
			success, attemptsPer := r.attemptCols(uint64(ops))
			// The audit has passed, or sweep would have failed the run.
			return []string{r.perSec(ops), success, attemptsPer, "yes"}
		},
	}
}
