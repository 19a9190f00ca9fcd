package wflocks

import (
	"runtime"
	"testing"
)

// TestSoakHeapBounded pins that the structures keep what they hold,
// not what they have done: on one goroutine over a fixed key set and
// capacity, the live heap after N·10 operations stays under an
// absolute ceiling and within 2× (+2 MB) of its reading after N.
// Published objects are never recycled (pointer freshness is what the
// idempotence construction and the lock protocol rely on), so this is
// the gate that they are also not kept alive: an arena chunk reachable
// from a live cell must not reach back into the attempts before it.
//
// Readings are HeapAlloc after two forced collections with the
// structure still reachable. The heap is read after every N operations
// and the test fails as soon as one reading passes the ceiling, so a
// leak is reported before it can exhaust the machine.
func TestSoakHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation keeps shadow memory that is not the library's")
	}
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	const (
		ceiling = 8 << 20
		slack   = 2 << 20
	)
	for _, c := range []struct {
		name  string
		setup func(t *testing.T) (op func(i int), keep any)
	}{
		{"Do", soakDo},
		{"Map.Update", soakMapUpdate},
		{"Map.Atomic", soakMapAtomic},
		{"Cache", soakCache},
		{"WorkPool", soakPool},
		{"Log", soakLog},
	} {
		t.Run(c.name, func(t *testing.T) {
			op, keep := c.setup(t)
			var first uint64
			for k := 1; k <= 10; k++ {
				for i := (k - 1) * n; i < k*n; i++ {
					op(i)
				}
				live := liveHeap()
				if k == 1 {
					first = live
				}
				if live >= ceiling {
					t.Fatalf("live heap %.1f MB after %d ops (%.1f MB after %d), want < %d MB",
						mb(live), k*n, mb(first), n, ceiling>>20)
				}
				if k == 10 {
					t.Logf("live heap %.2f MB after %d ops, %.2f MB after %d", mb(live), k*n, mb(first), n)
					if live >= 2*first+slack {
						t.Fatalf("live heap %.1f MB after %d ops, want < 2 × %.1f MB + %d MB (its reading after %d)",
							mb(live), k*n, mb(first), slack>>20, n)
					}
				}
			}
			runtime.KeepAlive(keep)
		})
	}
}

// liveHeap returns the bytes reachable after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func soakDo(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4))
	c := NewCell(uint64(0))
	locks := []*Lock{m.NewLock()}
	body := func(tx *Tx) { Put(tx, c, Get(tx, c)+1) }
	return func(int) {
		if err := m.Do(locks, 2, body); err != nil {
			t.Fatal(err)
		}
	}, []any{locks, c}
}

func soakMapUpdate(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4), WithMaxCriticalSteps(MapCriticalSteps(16, 1, 1)))
	mp, err := NewMap[uint64, uint64](m, WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	inc := func(old uint64, _ bool) (uint64, bool) { return old + 1, true }
	return func(i int) {
		if err := mp.Update(uint64(i%64), inc); err != nil {
			t.Fatal(err)
		}
	}, mp
}

func soakMapAtomic(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2),
		WithMaxCriticalSteps(MapAtomicSteps(16, 1, 1, 2)))
	mp, err := NewMap[uint64, uint64](m, WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{3, 42}
	for _, k := range keys {
		if err := mp.Put(k, 1<<32); err != nil {
			t.Fatal(err)
		}
	}
	transfer := func(tx *MapTxn[uint64, uint64]) {
		a, _ := tx.Get(3)
		b, _ := tx.Get(42)
		tx.Put(3, a+1)
		tx.Put(42, b-1)
	}
	return func(int) {
		if err := mp.Atomic(keys, transfer); err != nil {
			t.Fatal(err)
		}
	}, mp
}

func soakCache(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(1),
		WithMaxCriticalSteps(CacheCriticalSteps(128/8, 1, 1)))
	c, err := NewCache[uint64, uint64](m, WithCapacity(128))
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) {
		k := uint64(i % 128)
		c.Put(k, uint64(i))
		c.Get(k)
	}, c
}

func soakPool(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2),
		WithMaxCriticalSteps(WorkPoolCriticalSteps(1, 1)))
	wp, err := NewWorkPool[uint64](m, WithPoolBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) {
		if !wp.TryEnqueue(uint64(i)) {
			t.Fatal("enqueue into an empty pool failed")
		}
		if _, ok := wp.TryDequeue(); !ok {
			t.Fatal("dequeue after an enqueue found nothing")
		}
	}, wp
}

func soakLog(t *testing.T) (func(int), any) {
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(1, 1, 2, 16)))
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(256),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) {
		if !lg.TryAppend(uint64(i)) {
			t.Fatal("append failed")
		}
		if _, ok := cur.TryNext(); !ok {
			t.Fatal("next failed")
		}
	}, []any{lg, cur}
}
