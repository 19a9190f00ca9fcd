package wflocks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// White-box tests for the All iterator's seqlock protocol: a shard scan must stall
// while a mutation is mid-application (odd version), retry when the
// version moved under it (torn snapshot), and never surface a torn
// entry to the loop body under live writers.

// TestMapRangeWaitsForOddVersion pins the odd-version wait: with a
// shard's version forced odd, All must not complete; once the version
// returns to even it must. The version cell is driven directly, which
// is exactly what a stalled mutation's half-applied bumpVer looks like
// to a reader.
func TestMapRangeWaitsForOddVersion(t *testing.T) {
	m := mapManager(t, 2, 1, 8, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(1), WithShardCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if err := mp.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Acquire()
	ver := mp.eng.Shards[0].Ver
	odd := ver.Load(p.env)
	if odd%2 != 0 {
		t.Fatalf("version %d not even at rest", odd)
	}
	ver.Store(p.env, odd+1) // a mutation is now "mid-application"
	m.Release(p)

	done := make(chan int, 1)
	go func() {
		n := 0
		for range mp.All() {
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("All completed (%d entries) while the shard version was odd", n)
	case <-time.After(30 * time.Millisecond):
		// Still spinning, as it must be.
	}
	p = m.Acquire()
	ver.Store(p.env, odd+2) // mutation finished
	m.Release(p)
	select {
	case n := <-done:
		if n != 4 {
			t.Fatalf("All saw %d entries, want 4", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("All did not complete after the version returned to even")
	}
}

// TestMapRangeRetriesOnVersionChange exercises the retry path: a
// goroutine keeps stepping the shard version between even values (every
// mutation bumps twice, so even→even is one completed mutation) while
// All scans a large region. Any scan the bumper interleaves with sees
// version movement and must retry until it catches a stable window —
// and every snapshot must still report every entry exactly once.
func TestMapRangeRetriesOnVersionChange(t *testing.T) {
	// A big region makes each shard scan long enough that version bumps
	// land mid-snapshot rather than between snapshots.
	m := mapManager(t, 2, 1, 1024, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(1), WithShardCapacity(1024))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for k := uint64(0); k < n; k++ {
		if err := mp.Put(k, k*11); err != nil {
			t.Fatal(err)
		}
	}
	// The bumper works in short bursts separated by quiet gaps several
	// times longer than one scan: bursts land mid-snapshot often enough
	// to force retries, and the gaps guarantee every retry eventually
	// catches a stable window (continuous bumping would livelock All).
	var stop atomic.Bool
	var bumps atomic.Uint64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := m.Acquire()
		defer m.Release(p)
		ver := mp.eng.Shards[0].Ver
		ver.Store(p.env, ver.Load(p.env)+2)
		bumps.Add(1)
		close(started)
		for !stop.Load() {
			for j := 0; j < 8; j++ {
				ver.Store(p.env, ver.Load(p.env)+2)
				bumps.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	<-started
	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	for i := 0; i < rounds; i++ {
		got := map[uint64]uint64{}
		for k, v := range mp.All() {
			got[k] = v
		}
		if len(got) != n {
			t.Fatalf("iteration %d: All saw %d entries, want %d", i, len(got), n)
		}
		for k, v := range got {
			if v != k*11 {
				t.Fatalf("iteration %d: entry %d = %d, want %d", i, k, v, k*11)
			}
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if bumps.Load() < 2 {
		t.Fatal("version never moved; the retry path was not exercised")
	}
}

// TestMapRangeUnderConcurrentWriters runs All against live Put
// traffic and checks that no snapshot is torn: writers maintain the
// invariant value = key*1000 + generation with generation < 1000, so
// any mixed-up key/value pairing is detectable. Runs in -short; -race
// is part of the assertion.
func TestMapRangeUnderConcurrentWriters(t *testing.T) {
	const (
		writers  = 3
		keyspace = 12
		rounds   = 15
	)
	m := mapManager(t, writers+1, 1, 16, 1, 1)
	mp, err := NewMap[uint64, uint64](m, WithShards(2), WithShardCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keyspace; k++ {
		if err := mp.Put(k, k*1000); err != nil {
			t.Fatal(err)
		}
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
				if err := mp.Put(k, k*1000+gen%1000); err != nil {
					t.Error(err)
					return
				}
				gen++
			}
		}(w)
	}
	for i := 0; i < rounds; i++ {
		for k, v := range mp.All() {
			if v/1000 != k {
				t.Errorf("torn snapshot: key %d carries value %d", k, v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
