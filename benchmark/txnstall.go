package main

import (
	"fmt"

	"wflocks"
)

// txn-stall: holder-stall regime, 8 goroutines. One op is Map.Atomic
// over 4 distinct uniform keys with the transfer body; the value codec
// draws the stall point. The multi-lock attempt (delay schedule,
// helping, idempotent re-execution, the κ²L²T product) does almost all
// the work here and the structure bodies almost none. Helping needs more
// holders than cores to occur at all, and the goroutines are asleep for
// most of the window, so 8 of them fit the W cores the benchmark uses.
const (
	txnGoroutines = 8
	txnKeys       = 1024
	txnShards     = 16
	txnLocks      = 4
	txnBalance    = 100
)

func setupTxnStall(c setupCfg) (*instance, error) {
	shardCap := 2 * txnKeys / txnShards
	m, err := newManager(txnGoroutines+2, txnLocks,
		wflocks.MapAtomicSteps(shardCap, 1, 1, txnLocks), c.metrics)
	if err != nil {
		return nil, fmt.Errorf("txn-stall: manager: %w", err)
	}
	sp := &stallPoint{}
	mp, err := wflocks.NewMapOf[uint64, uint64](m, wflocks.IntegerCodec[uint64](), sp.codec(),
		wflocks.WithShards(txnShards), wflocks.WithShardCapacity(shardCap))
	if err != nil {
		return nil, fmt.Errorf("txn-stall: map: %w", err)
	}
	for k := uint64(0); k < txnKeys; k++ {
		if err := mp.Put(k, txnBalance); err != nil {
			return nil, fmt.Errorf("txn-stall: prefill: %w", err)
		}
	}
	errs := make([]uint64, txnGoroutines) // per generator, read after the run
	inst := &instance{
		mgrs: []*wflocks.Manager{m},
		arm:  func() { sp.armed.Store(true) },
		tables: func() (size, sumProbe, maxProbe int) {
			for _, sh := range mp.Stats().Shards {
				size, sumProbe, maxProbe = size+sh.Size, sumProbe+sh.SumProbe, max(maxProbe, sh.MaxProbe)
			}
			return size, sumProbe, maxProbe
		},
		counts: func() map[string]uint64 { return map[string]uint64{} },
		audit: func() []string {
			var sum, failed uint64
			for _, v := range mp.All() {
				sum += v
			}
			for _, e := range errs {
				failed += e
			}
			return auditTxn(sum, txnKeys*txnBalance, failed)
		},
		close: func() error { return nil },
	}
	for i := 0; i < txnGoroutines; i++ {
		rng := newRand(c, i+1)
		inst.gens = append(inst.gens, func(g *gen) {
			g.closedLoop(1, func(round uint64) uint64 {
				keys := drawDistinct(rng, txnLocks, txnKeys)
				t := g.tr.now()
				err := mp.Atomic(keys, transferBody)
				g.tr.lap(kTxnL4, round, t)
				if err != nil {
					errs[g.id]++
					return 1
				}
				return 0
			})
		})
	}
	return inst, nil
}
