package table_test

import (
	"testing"

	"wflocks"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/table"
)

// run executes body once through the idempotence layer, the same way a
// critical section would run it, with a generous op budget.
func run(t testing.TB, e env.Env, maxOps int, body func(r *idem.Run)) {
	t.Helper()
	idem.NewExec(body, maxOps).Execute(e)
}

func newUintTable(shards, capacity int) *table.Table[uint64, uint64] {
	kc := wflocks.IntegerCodec[uint64]()
	vc := wflocks.IntegerCodec[uint64]()
	return table.New[uint64, uint64](kc, vc, shards, capacity, 42)
}

func TestNewRoundsToPow2(t *testing.T) {
	tb := newUintTable(3, 20)
	if tb.ShardCount() != 4 {
		t.Errorf("ShardCount = %d, want 4", tb.ShardCount())
	}
	if tb.Capacity() != 32 {
		t.Errorf("Capacity = %d, want 32", tb.Capacity())
	}
	if tb.KeyWords() != 1 || tb.ValueWords() != 1 {
		t.Errorf("words = (%d, %d), want (1, 1)", tb.KeyWords(), tb.ValueWords())
	}
}

// TestBudgetPinsPublicHelpers pins the two public budget helpers to the
// engine's shared calculator: MapCriticalSteps is Budget with two value
// accesses and 10 words of bookkeeping, CacheCriticalSteps with two
// value accesses and 16 (eviction, deadline, hand and counters). If either
// drifts from the shared formula the structures' validated budgets and
// the engine's would disagree, so this is a contract test, not a
// tautology.
func TestBudgetPinsPublicHelpers(t *testing.T) {
	for _, c := range []struct{ cap, kw, vw int }{
		{1, 1, 1}, {7, 1, 1}, {64, 1, 1}, {64, 2, 3}, {100, 4, 1}, {1024, 1, 2},
	} {
		if got, want := wflocks.MapCriticalSteps(c.cap, c.kw, c.vw), table.Budget(c.cap, c.kw, c.vw, 2, 10); got != want {
			t.Errorf("MapCriticalSteps(%d,%d,%d) = %d, want shared Budget %d", c.cap, c.kw, c.vw, got, want)
		}
		if got, want := wflocks.CacheCriticalSteps(c.cap, c.kw, c.vw), table.Budget(c.cap, c.kw, c.vw, 2, 16); got != want {
			t.Errorf("CacheCriticalSteps(%d,%d,%d) = %d, want shared Budget %d", c.cap, c.kw, c.vw, got, want)
		}
	}
	// The probe term alone is Budget's linear component.
	if got, want := table.ProbeSteps(65, 2), 128*3; got != want {
		t.Errorf("ProbeSteps(65, 2) = %d, want %d", got, want)
	}
}

func TestInsertFindRemoveCycle(t *testing.T) {
	tb := newUintTable(1, 8)
	e := env.NewNative(0, 1)
	sh := &tb.Shards[0]
	budget := table.Budget(8, 1, 1, 2, 10)

	const k, v = uint64(99), uint64(123)
	h := tb.Hash(k)
	home := tb.Home(h)

	run(t, e, budget, func(r *idem.Run) {
		if _, found, free := tb.Find(r, sh, h, home, k); found || free < 0 {
			t.Errorf("empty table: found=%v free=%d, want absent with a free bucket", found, free)
		}
	})
	run(t, e, budget, func(r *idem.Run) {
		_, _, free := tb.Find(r, sh, h, home, k)
		tb.Insert(r, sh, free, h, k, v)
	})
	run(t, e, budget, func(r *idem.Run) {
		i, found, _ := tb.Find(r, sh, h, home, k)
		if !found {
			t.Fatal("inserted key not found")
		}
		if got := tb.Val(r, sh, i); got != v {
			t.Errorf("Val = %d, want %d", got, v)
		}
		if got := tb.Key(r, sh, i); got != k {
			t.Errorf("Key = %d, want %d", got, k)
		}
		tb.SetVal(r, sh, i, v+1)
	})
	if got := tb.LoadSize(e, sh); got != 1 {
		t.Errorf("size = %d, want 1", got)
	}
	run(t, e, budget, func(r *idem.Run) {
		i, found, _ := tb.Find(r, sh, h, home, k)
		if !found || tb.Val(r, sh, i) != v+1 {
			t.Error("overwrite lost")
		}
		tb.Remove(r, sh, i)
	})
	run(t, e, budget, func(r *idem.Run) {
		if _, found, free := tb.Find(r, sh, h, home, k); found || free < 0 {
			t.Errorf("after remove: found=%v free=%d, want tombstone reusable", found, free)
		}
	})
	if got := tb.LoadSize(e, sh); got != 0 {
		t.Errorf("size after remove = %d, want 0", got)
	}
}

// TestReadStableSeesMutations drives the seqlock directly: ReadStable
// must retry while the version is odd (a mutation mid-application) and
// return a snapshot from a stable window.
func TestReadStableSeesMutations(t *testing.T) {
	tb := newUintTable(1, 8)
	e := env.NewNative(0, 1)
	sh := &tb.Shards[0]
	budget := table.Budget(8, 1, 1, 2, 10)

	h := tb.Hash(7)
	run(t, e, budget, func(r *idem.Run) {
		_, _, free := tb.Find(r, sh, h, tb.Home(h), 7)
		tb.Insert(r, sh, free, h, 7, 70)
	})

	// Force the version odd; ReadStable must spin in yieldCPU until it
	// goes even again.
	sh.Ver.Store(e, 1)
	yields := 0
	var got []uint64
	tb.ReadStable(e, sh, func() {
		yields++
		if yields == 3 {
			sh.Ver.Store(e, 2) // mutation "finished"
		}
	}, func() {
		got = got[:0]
		for i := 0; i < tb.Capacity(); i++ {
			if tb.LoadMeta(e, sh, i)&table.StateMask == table.Full {
				got = append(got, tb.LoadVal(e, sh, i))
			}
		}
	})
	if yields < 3 {
		t.Errorf("ReadStable returned after %d yields with the version still odd", yields)
	}
	if len(got) != 1 || got[0] != 70 {
		t.Errorf("snapshot = %v, want [70]", got)
	}
}

func TestHashShardHomeIndependence(t *testing.T) {
	// Keys that collide on a shard should still spread over home
	// buckets: shard selection uses low hash bits, home the high bits.
	tb := newUintTable(4, 64)
	homes := map[int]bool{}
	n := 0
	for k := uint64(0); k < 4096 && n < 200; k++ {
		h := tb.Hash(k)
		if tb.ShardIndex(h) != 0 {
			continue
		}
		n++
		homes[tb.Home(h)] = true
	}
	if len(homes) < 16 {
		t.Errorf("200 same-shard keys hit only %d distinct home buckets", len(homes))
	}
}

// TestProbeStats checks the metrics scan against a brute-force oracle:
// insert a batch of keys, remove some (leaving tombstones), and compare
// ProbeStats with displacements recomputed per key from Find's slot and
// the key's own home bucket.
func TestProbeStats(t *testing.T) {
	tb := newUintTable(1, 32)
	e := env.NewNative(0, 1)
	sh := &tb.Shards[0]
	budget := table.Budget(32, 1, 1, 2, 10)

	const n = 20
	for k := uint64(0); k < n; k++ {
		k := k
		h := tb.Hash(k)
		run(t, e, budget, func(r *idem.Run) {
			_, _, free := tb.Find(r, sh, h, tb.Home(h), k)
			tb.Insert(r, sh, free, h, k, k*7)
		})
	}
	// Remove every fourth key; Remove leaves a tombstone.
	removed := 0
	for k := uint64(0); k < n; k += 4 {
		k := k
		h := tb.Hash(k)
		run(t, e, budget, func(r *idem.Run) {
			i, found, _ := tb.Find(r, sh, h, tb.Home(h), k)
			if !found {
				t.Fatalf("key %d vanished", k)
			}
			tb.Remove(r, sh, i)
		})
		removed++
	}

	// Oracle: displacement of each surviving key from its own hash.
	want := table.ShardProbeStats{Capacity: tb.Capacity(), Tombstones: removed}
	for k := uint64(0); k < n; k++ {
		if k%4 == 0 {
			continue
		}
		k := k
		h := tb.Hash(k)
		run(t, e, budget, func(r *idem.Run) {
			i, found, _ := tb.Find(r, sh, h, tb.Home(h), k)
			if !found {
				t.Fatalf("key %d vanished", k)
			}
			d := (i - tb.Home(h)) & (tb.Capacity() - 1)
			want.Full++
			want.SumProbe += d
			if d > want.MaxProbe {
				want.MaxProbe = d
			}
		})
	}

	if got := tb.ProbeStats(e, sh); got != want {
		t.Errorf("ProbeStats = %+v, want %+v", got, want)
	}
}

// TestLoadFindMultiWordKeys: the lock-free probe matches a multi-word
// key by its encoding, through the process's scratch words, and must
// agree with Find's decoded comparison — across a tombstone, for keys
// that share a word, and for an absent key — as HashIn must with Hash.
func TestLoadFindMultiWordKeys(t *testing.T) {
	type pair struct{ a, b uint64 }
	kc := wflocks.CodecFunc(2,
		func(p pair, dst []uint64) { dst[0], dst[1] = p.a, p.b },
		func(src []uint64) pair { return pair{src[0], src[1]} })
	tb := table.New[pair, uint64](kc, wflocks.IntegerCodec[uint64](), 1, 8, 42)
	e := env.NewNative(0, 1)
	sh := &tb.Shards[0]
	budget := table.Budget(8, 2, 1, 2, 10)
	keys := []pair{{1, 1}, {1, 2}, {2, 1}, {7, 7}, {0, 0}}
	for i, k := range keys {
		h := tb.Hash(k)
		if tb.HashIn(e, k) != h {
			t.Fatalf("HashIn(%v) differs from Hash", k)
		}
		run(t, e, budget, func(r *idem.Run) {
			_, _, free := tb.Find(r, sh, h, tb.Home(h), k)
			tb.Insert(r, sh, free, h, k, uint64(i))
		})
	}
	gone := keys[1]
	run(t, e, budget, func(r *idem.Run) {
		h := tb.Hash(gone)
		i, _, _ := tb.Find(r, sh, h, tb.Home(h), gone)
		tb.Remove(r, sh, i)
	})
	for _, k := range append(keys, pair{2, 2}) {
		h := tb.Hash(k)
		var at int
		var found bool
		run(t, e, budget, func(r *idem.Run) { at, found, _ = tb.Find(r, sh, h, tb.Home(h), k) })
		li, lfound := tb.LoadFind(e, sh, h, tb.Home(h), k)
		if lfound != found || (found && li != at) || found == (k == gone || k == pair{2, 2}) {
			t.Errorf("key %v: LoadFind (%d, %v), Find (%d, %v)", k, li, lfound, at, found)
		}
		if v, ok, done := tb.FindStable(e, sh, h, tb.Home(h), k, 1); !done || ok != found || (ok && keys[v] != k) {
			t.Errorf("key %v: FindStable = (%d, %v, %v)", k, v, ok, done)
		}
	}
}
