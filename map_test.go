package wflocks

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mapManager builds a manager sized for maps in tests: κ and L as
// given, T covering a two-key transaction (Swap's budget) at the given
// capacity, and delay constants of 1 to keep the fixed stalls short on
// test machines.
func mapManager(t testing.TB, kappa, maxLocks, shardCap, keyWords, valWords int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(maxLocks),
		WithMaxCriticalSteps(MapAtomicSteps(shardCap, keyWords, valWords, 2)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapBasic(t *testing.T) {
	// Capacity carries margin over the keyspace: buckets are fixed per
	// shard, so a skewed hash draw must still fit the hottest shard.
	m := mapManager(t, 2, 2, 32, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(4), WithShardCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	if mp.Shards() != 4 || mp.ShardCapacity() != 32 {
		t.Fatalf("shape = (%d, %d), want (4, 32)", mp.Shards(), mp.ShardCapacity())
	}
	const n = 20
	for k := uint64(0); k < n; k++ {
		if err := mp.Put(k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if got := mp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := mp.Get(k)
		if !ok || v != k*10 {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*10)
		}
	}
	if _, ok := mp.Get(999); ok {
		t.Fatal("Get(999) found a missing key")
	}
	// Overwrite does not grow the map.
	if err := mp.Put(3, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := mp.Get(3); v != 42 {
		t.Fatalf("overwritten Get(3) = %d, want 42", v)
	}
	if got := mp.Len(); got != n {
		t.Fatalf("Len after overwrite = %d, want %d", got, n)
	}
	if !mp.Delete(3) {
		t.Fatal("Delete(3) = false, want true")
	}
	if mp.Delete(3) {
		t.Fatal("second Delete(3) = true, want false")
	}
	if _, ok := mp.Get(3); ok {
		t.Fatal("Get(3) found a deleted key")
	}
	if got := mp.Len(); got != n-1 {
		t.Fatalf("Len after delete = %d, want %d", got, n-1)
	}
}

func TestMapOptionValidation(t *testing.T) {
	m := mapManager(t, 2, 1, 8, 1, 1)
	if _, err := NewMap[int, int](m, WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	if _, err := NewMap[int, int](m, WithShardCapacity(-1)); err == nil {
		t.Fatal("WithShardCapacity(-1) accepted")
	}
	// Rounding to powers of two.
	mp, err := NewMap[int, int](m, WithShards(3), WithShardCapacity(5))
	if err != nil {
		t.Fatal(err)
	}
	if mp.Shards() != 4 || mp.ShardCapacity() != 8 {
		t.Fatalf("rounded shape = (%d, %d), want (4, 8)", mp.Shards(), mp.ShardCapacity())
	}
	// A manager whose T cannot cover the budget is rejected with the
	// required bound in the message.
	small, err := New(WithKappa(2), WithMaxCriticalSteps(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMap[int, int](small, WithShardCapacity(64)); err == nil {
		t.Fatal("NewMap accepted a manager with an insufficient T bound")
	}
}

// TestMapFullAndTombstoneReuse fills a single-shard map to capacity,
// checks ErrMapFull, and checks that Delete's tombstones are reusable
// and keep longer probe chains reachable.
func TestMapFullAndTombstoneReuse(t *testing.T) {
	m := mapManager(t, 2, 1, 4, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(1), WithShardCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3, 4}
	for _, k := range keys {
		if err := mp.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if err := mp.Put(5, 5); !errors.Is(err, ErrMapFull) {
		t.Fatalf("Put into full shard: err = %v, want ErrMapFull", err)
	}
	// A miss in a full region must scan the whole region (worst-case
	// probe) without exhausting the ops budget.
	if _, ok := mp.Get(99); ok {
		t.Fatal("found a key that was never inserted")
	}
	if !mp.Delete(2) {
		t.Fatal("Delete(2) failed")
	}
	// Every survivor must remain reachable across the tombstone.
	for _, k := range []uint64{1, 3, 4} {
		if v, ok := mp.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) after delete = (%d, %v), want (%d, true)", k, v, ok, k)
		}
	}
	if err := mp.Put(6, 6); err != nil {
		t.Fatalf("Put into tombstoned slot: %v", err)
	}
	if v, ok := mp.Get(6); !ok || v != 6 {
		t.Fatalf("Get(6) = (%d, %v), want (6, true)", v, ok)
	}
}

func TestMapSwap(t *testing.T) {
	m := mapManager(t, 2, 2, 8, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(4), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	// Find two keys on different shards and two on the same shard.
	var cross [2]uint64
	var same [2]uint64
	foundCross, foundSame := false, false
	for a := uint64(0); a < 64 && !foundCross; a++ {
		for b := a + 1; b < 64 && !foundCross; b++ {
			if mp.eng.ShardIndex(mp.eng.Hash(a)) != mp.eng.ShardIndex(mp.eng.Hash(b)) {
				cross = [2]uint64{a, b}
				foundCross = true
			}
		}
	}
	// The same-shard pair must be disjoint from the cross pair: the test
	// re-puts each pair's original values, which would undo the other
	// pair's swap.
	for a := uint64(0); a < 64 && !foundSame; a++ {
		for b := a + 1; b < 64 && !foundSame; b++ {
			if a == cross[0] || a == cross[1] || b == cross[0] || b == cross[1] {
				continue
			}
			if mp.eng.ShardIndex(mp.eng.Hash(a)) == mp.eng.ShardIndex(mp.eng.Hash(b)) {
				same = [2]uint64{a, b}
				foundSame = true
			}
		}
	}
	if !foundCross || !foundSame {
		t.Fatal("could not find shard-colliding and shard-distinct key pairs")
	}
	for _, pair := range [][2]uint64{cross, same} {
		if err := mp.Put(pair[0], 100+pair[0]); err != nil {
			t.Fatal(err)
		}
		if err := mp.Put(pair[1], 100+pair[1]); err != nil {
			t.Fatal(err)
		}
		ok, err := mp.Swap(pair[0], pair[1])
		if err != nil || !ok {
			t.Fatalf("Swap(%d, %d) = (%v, %v), want (true, nil)", pair[0], pair[1], ok, err)
		}
		if v, _ := mp.Get(pair[0]); v != 100+pair[1] {
			t.Fatalf("after swap Get(%d) = %d, want %d", pair[0], v, 100+pair[1])
		}
		if v, _ := mp.Get(pair[1]); v != 100+pair[0] {
			t.Fatalf("after swap Get(%d) = %d, want %d", pair[1], v, 100+pair[0])
		}
	}
	// Swapping with a missing key changes nothing.
	ok, err := mp.Swap(cross[0], 9999)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Swap with a missing key reported success")
	}
	if v, _ := mp.Get(cross[0]); v != 100+cross[1] {
		t.Fatal("failed Swap mutated a value")
	}
	// Self-swap is a successful no-op.
	if ok, err := mp.Swap(same[0], same[0]); err != nil || !ok {
		t.Fatalf("self-swap = (%v, %v), want (true, nil)", ok, err)
	}
}

// TestMapSwapBoundErrors checks Swap's validation against managers
// whose L or T bounds cannot host it.
func TestMapSwapBoundErrors(t *testing.T) {
	// L = 1: cross-shard swaps must fail with ErrTooManyLocks while
	// same-shard swaps still work.
	m1 := mapManager(t, 2, 1, 8, 1, 1)
	mp1, err := NewMap[uint64, uint64](m1, WithShards(4), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	for b = 1; b < 64; b++ {
		if mp1.eng.ShardIndex(mp1.eng.Hash(0)) != mp1.eng.ShardIndex(mp1.eng.Hash(b)) {
			break
		}
	}
	if err := mp1.Put(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := mp1.Put(b, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mp1.Swap(a, b); !errors.Is(err, ErrTooManyLocks) {
		t.Fatalf("cross-shard Swap under L=1: err = %v, want ErrTooManyLocks", err)
	}

	// T covering only the single-shard budget: Swap must report
	// ErrMaxOpsExceeded instead of attempting.
	mSmall, err := New(WithKappa(2), WithMaxLocks(2),
		WithMaxCriticalSteps(MapCriticalSteps(8, 1, 1)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := NewMap[uint64, uint64](mSmall, WithShards(4), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp2.Swap(1, 2); !errors.Is(err, ErrMaxOpsExceeded) {
		t.Fatalf("Swap under tight T: err = %v, want ErrMaxOpsExceeded", err)
	}
}

func TestMapRange(t *testing.T) {
	m := mapManager(t, 2, 1, 16, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(2), WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for k := uint64(0); k < 12; k++ {
		want[k] = k * k
		if err := mp.Put(k, k*k); err != nil {
			t.Fatal(err)
		}
	}
	got := map[uint64]uint64{}
	for k, v := range mp.All() {
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
	// Early termination stops the iteration.
	visits := 0
	for range mp.All() {
		visits++
		break
	}
	if visits != 1 {
		t.Fatalf("All after break = %d visits, want 1", visits)
	}
	// The loop body may call back into the map (it runs outside any
	// critical section).
	for k := range mp.All() {
		_, _ = mp.Get(k)
	}
}

// TestMapMultiWordCodecs exercises multi-word struct keys and values
// through CodecFunc, including the slice-based hash path.
func TestMapMultiWordCodecs(t *testing.T) {
	type point struct{ X, Y uint64 }
	pointCodec := CodecFunc(2,
		func(p point, dst []uint64) { dst[0], dst[1] = p.X, p.Y },
		func(src []uint64) point { return point{src[0], src[1]} })
	m := mapManager(t, 2, 2, 8, 2, 2)
	mp, err := NewMapOf[point, point](m, pointCodec, pointCodec,
		WithShards(2), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := mp.Put(point{i, i + 1}, point{i * 2, i * 3}); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := uint64(0); i < 8; i++ {
		v, ok := mp.Get(point{i, i + 1})
		if !ok || v != (point{i * 2, i * 3}) {
			t.Fatalf("Get(point{%d}) = (%v, %v)", i, v, ok)
		}
	}
	if _, ok := mp.Get(point{100, 100}); ok {
		t.Fatal("found a missing struct key")
	}
	if ok, err := mp.Swap(point{0, 1}, point{1, 2}); err != nil || !ok {
		t.Fatalf("struct Swap = (%v, %v)", ok, err)
	}
	if v, _ := mp.Get(point{0, 1}); v != (point{2, 3}) {
		t.Fatalf("after struct swap: %v", v)
	}
}

func TestMapUpdate(t *testing.T) {
	m := mapManager(t, 2, 1, 8, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(2), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	// Insert through Update: fn sees absent, returns a value to keep.
	if err := mp.Update(1, func(old uint64, ok bool) (uint64, bool) {
		if ok {
			t.Errorf("insert path saw ok=true (old %d)", old)
		}
		return 100, true
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := mp.Get(1); !ok || v != 100 {
		t.Fatalf("after insert Update: Get(1) = (%d, %v), want (100, true)", v, ok)
	}
	// Modify in place: fn sees the current value.
	if err := mp.Update(1, func(old uint64, ok bool) (uint64, bool) {
		if !ok || old != 100 {
			t.Errorf("modify path saw (%d, %v), want (100, true)", old, ok)
		}
		return old + 1, true
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := mp.Get(1); v != 101 {
		t.Fatalf("after modify Update: Get(1) = %d, want 101", v)
	}
	// keep=false deletes a present key...
	if err := mp.Update(1, func(old uint64, ok bool) (uint64, bool) {
		return 0, false
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mp.Get(1); ok {
		t.Fatal("Update(keep=false) left the key present")
	}
	if mp.Len() != 0 {
		t.Fatalf("Len = %d, want 0", mp.Len())
	}
	// ...and is a no-op on an absent key.
	if err := mp.Update(2, func(old uint64, ok bool) (uint64, bool) {
		return 0, false
	}); err != nil {
		t.Fatal(err)
	}
	if mp.Len() != 0 {
		t.Fatal("no-op Update changed the map")
	}
}

// TestMapUpdateFull checks that an inserting Update against a full
// shard reports ErrMapFull like Put does.
func TestMapUpdateFull(t *testing.T) {
	m := mapManager(t, 2, 1, 4, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(1), WithShardCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if err := mp.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	err = mp.Update(99, func(old uint64, ok bool) (uint64, bool) { return 1, true })
	if !errors.Is(err, ErrMapFull) {
		t.Fatalf("insert Update into full shard: err = %v, want ErrMapFull", err)
	}
	// Overwriting Update still works at capacity.
	if err := mp.Update(1, func(old uint64, ok bool) (uint64, bool) { return old * 10, true }); err != nil {
		t.Fatal(err)
	}
	if v, _ := mp.Get(1); v != 10 {
		t.Fatalf("Update at capacity: Get(1) = %d, want 10", v)
	}
}

// TestMapUpdateConcurrentIncrement is the reason Update exists: n
// goroutines doing read-modify-write increments on one key must never
// lose an update. A Get-then-Put loop loses increments under this
// schedule; one critical section cannot.
func TestMapUpdateConcurrentIncrement(t *testing.T) {
	const (
		procs   = 4
		incsPer = 25
	)
	m := mapManager(t, procs, 1, 8, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(1), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incsPer; i++ {
				if err := mp.Update(7, func(old uint64, ok bool) (uint64, bool) {
					if !ok {
						return 1, true
					}
					return old + 1, true
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, ok := mp.Get(7); !ok || v != procs*incsPer {
		t.Fatalf("counter = (%d, %v), want (%d, true) — increments were lost", v, ok, procs*incsPer)
	}
}

// TestMapConcurrent hammers one map from several goroutines with a
// mixed workload and checks invariants afterwards. It is intentionally
// small (attempts pay the algorithm's fixed delays) and runs in -short;
// the race detector is the main assertion.
func TestMapConcurrent(t *testing.T) {
	const (
		procs     = 4
		opsPer    = 30
		keyspace  = 16
		shardCap  = 16
		numShards = 4
	)
	m := mapManager(t, procs, 2, shardCap, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(numShards), WithShardCapacity(shardCap))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := uint64((g*opsPer + i*7) % keyspace)
				switch i % 5 {
				case 0, 1:
					if _, ok := mp.Get(k); ok {
						// Concurrent readers see whatever was last
						// linearized; nothing to assert per-op.
						_ = ok
					}
				case 2, 3:
					if err := mp.Put(k, uint64(g)<<32|uint64(i)); err != nil {
						errs <- fmt.Errorf("goroutine %d Put(%d): %w", g, k, err)
						return
					}
				case 4:
					mp.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Len must equal the number of All-visible entries at quiescence,
	// and every key must round-trip.
	seen := 0
	for k, v := range mp.All() {
		seen++
		got, ok := mp.Get(k)
		if !ok || got != v {
			t.Errorf("All/Get disagree on %d: (%d, %v) vs %d", k, got, ok, v)
		}
	}
	if got := mp.Len(); got != seen {
		t.Errorf("Len = %d but All saw %d entries", got, seen)
	}
	st := mp.Stats()
	if len(st.Shards) != numShards {
		t.Fatalf("Stats has %d shards, want %d", len(st.Shards), numShards)
	}
	var attempts uint64
	for _, s := range st.Shards {
		attempts += s.Lock.Attempts
	}
	if attempts == 0 {
		t.Fatal("no attempts recorded on any shard lock")
	}
	if st.Balance <= 0 || st.Balance > 1 {
		t.Fatalf("Balance = %v, want (0, 1]", st.Balance)
	}
	if st.Len != seen {
		t.Fatalf("Stats.Len = %d, want %d", st.Len, seen)
	}
}

// TestMapConcurrentSwap runs cross-shard swaps (the L=2 path) against
// concurrent reads and checks value conservation: swaps permute values,
// so the multiset of values over the swap keys must be preserved.
func TestMapConcurrentSwap(t *testing.T) {
	const procs = 4
	m := mapManager(t, procs, 2, 8, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(4), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{0, 1, 2, 3, 4, 5}
	for i, k := range keys {
		if err := mp.Put(k, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				a := keys[(g+i)%len(keys)]
				b := keys[(g+i*3+1)%len(keys)]
				if _, err := mp.Swap(a, b); err != nil {
					t.Errorf("Swap(%d, %d): %v", a, b, err)
					return
				}
				_, _ = mp.Get(a)
			}
		}(g)
	}
	wg.Wait()
	got := map[uint64]int{}
	for _, k := range keys {
		v, ok := mp.Get(k)
		if !ok {
			t.Fatalf("key %d vanished", k)
		}
		got[v]++
	}
	for i := range keys {
		if got[uint64(1000+i)] != 1 {
			t.Fatalf("value %d appears %d times, want 1 (values must be permuted, not duplicated)",
				1000+i, got[uint64(1000+i)])
		}
	}
}

// widePair is a 2-word element for the wide-codec tests: B is derived
// from A, so a torn or mis-decoded value is detectable on its own.
type widePair struct{ A, B uint64 }

func (w widePair) sane() bool { return w.B == w.A*7+1 }

func newWidePair(a uint64) widePair { return widePair{A: a, B: a*7 + 1} }

// stallingPairCodec is the holder-stall regime for a multi-word codec:
// once armed, every period-th Encode sleeps. Encodes run inside
// critical sections (slot writes and wide result-cell writes), so the
// sleeper is a stalled lock holder whose body competitors re-execute.
func stallingPairCodec(armed *atomic.Bool, period uint64, d time.Duration) Codec[widePair] {
	var n atomic.Uint64
	return CodecFunc(2,
		func(w widePair, dst []uint64) {
			if armed.Load() && n.Add(1)%period == 0 {
				time.Sleep(d)
			}
			dst[0], dst[1] = w.A, w.B
		},
		func(src []uint64) widePair { return widePair{src[0], src[1]} })
}

// TestMapGetWideCodecLockedPath covers the one Get body for multi-word
// values: the frame routes the found value through its result cell.
// Stalling writers keep the single shard's seqlock odd for milliseconds
// at a time, so concurrent Gets exhaust the lock-free probe, take the
// shard lock and help the stalled writer; a Get's own result-cell
// encode stalls too, so other acquirers re-execute Get bodies. Every
// decoded value must be one a writer stored for that key, a missing key
// must stay missing, and the win count proves the locked path ran.
func TestMapGetWideCodecLockedPath(t *testing.T) {
	const (
		writers  = 2
		readers  = 3
		keyspace = 6
		puts     = 60
	)
	var armed atomic.Bool
	vc := stallingPairCodec(&armed, 8, 500*time.Microsecond)
	m := mapManager(t, writers+readers, 1, 16, 1, 2)
	mp, err := NewMapOf[uint64, widePair](m, IntegerCodec[uint64](), vc, WithShards(1), WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	// Key k only ever holds values with A%keyspace == k.
	for k := uint64(0); k < keyspace; k++ {
		if err := mp.Put(k, newWidePair(k)); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	var writing, reading sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < puts; i++ {
				k := uint64((w + i) % keyspace)
				if err := mp.Put(k, newWidePair(k+uint64(i+1)*keyspace)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for i := 0; !done.Load(); i++ { // read for as long as writers stall
				k := uint64((r + i) % (keyspace + 1)) // keyspace itself is never stored
				v, ok := mp.Get(k)
				switch {
				case k == keyspace && ok:
					t.Errorf("Get(%d) found %+v for a key never stored", k, v)
				case k < keyspace && (!ok || !v.sane() || v.A%keyspace != k):
					t.Errorf("Get(%d) = (%+v, %v), want a value stored for that key", k, v, ok)
				}
			}
		}(r)
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	armed.Store(false)
	// Every Put is exactly one won section; the surplus is locked Gets.
	st := mp.Stats().Shards[0].Lock
	// The stalling codec parks holders inside their bodies, so the help
	// that runs is finishing a won section on its holder's behalf.
	if locked := int(st.Wins) - (keyspace + writers*puts); locked <= 0 || st.HelpCompletions == 0 {
		t.Fatalf("locked Gets = %d, help completions = %d (helps = %d): the locked path and helping must both have run",
			locked, st.HelpCompletions, st.Helps)
	}

	// Deterministic coverage of both outcomes: with the version forced
	// odd the lock-free probe cannot succeed, so these Gets are locked.
	p := m.Acquire()
	ver := mp.eng.Shards[0].Ver
	even := ver.Load(p.env)
	ver.Store(p.env, even+1)
	m.Release(p)
	for k := uint64(0); k <= keyspace; k++ {
		v, ok := mp.Get(k)
		if ok != (k < keyspace) || (ok && (!v.sane() || v.A%keyspace != k)) {
			t.Fatalf("locked Get(%d) = (%+v, %v)", k, v, ok)
		}
	}
	p = m.Acquire()
	ver.Store(p.env, even)
	m.Release(p)
}
