package bench

import (
	"testing"
	"time"
)

func TestMutexLRUBasic(t *testing.T) {
	c := NewMutexLRU(3, nil)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d, %v)", v, ok)
	}
	// Recency is now 1 > 3 > 2; inserting a fourth key evicts 2.
	c.Put(4, 40)
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU key 2 survived the eviction")
	}
	for _, k := range []uint64{1, 3, 4} {
		if v, ok := c.Get(k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if !c.Delete(3) || c.Delete(3) {
		t.Fatal("Delete(3) sequence wrong")
	}
	hits, misses, evictions := c.Counters()
	if hits != 4 || misses != 1 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d, want 4/1/1", hits, misses, evictions)
	}
	// Overwrite refreshes recency without growing.
	c.Put(1, 11)
	c.Put(5, 50)
	c.Put(6, 60) // evicts 4 (1 was refreshed, 3 deleted)
	if _, ok := c.Get(4); ok {
		t.Fatal("key 4 should have been evicted after 1 was refreshed")
	}
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("refreshed Get(1) = (%d, %v)", v, ok)
	}
}

func TestStallPoint(t *testing.T) {
	// Unarmed, hits draw but never sleep (setup work is free).
	sp := NewStallPoint(2, 2*time.Millisecond)
	start := time.Now()
	for i := 0; i < 100; i++ {
		sp.Hit()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("unarmed stall point slept (%v)", elapsed)
	}
	// Armed, every second call sleeps: four calls must cost at least
	// two stall durations.
	sp.Arm()
	start = time.Now()
	for i := 0; i < 4; i++ {
		sp.Hit()
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("4 armed hits at period 2 took %v, want >= 4ms", elapsed)
	}
	// A nil point is inert for both calls.
	var nilSP *StallPoint
	nilSP.Arm()
	start = time.Now()
	for i := 0; i < 1000; i++ {
		nilSP.Hit()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("nil stall point cost %v", elapsed)
	}
}

func TestStallValueCodecRoundTrip(t *testing.T) {
	sp := NewStallPoint(1000000, time.Millisecond)
	vc := StallValueCodec(sp)
	if vc.Words() != 1 {
		t.Fatalf("Words = %d, want 1", vc.Words())
	}
	var buf [1]uint64
	vc.Encode(12345, buf[:])
	if got := vc.Decode(buf[:]); got != 12345 {
		t.Fatalf("round trip = %d, want 12345", got)
	}
	if sp.n.Load() != 1 {
		t.Fatalf("encode drew %d stall decisions, want 1", sp.n.Load())
	}
}
