package wflocks

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// logManager builds a manager sized for log tests: L=2 for the
// cursor-advance and trim-clamp pairs, T covering a batch critical
// section with the given consumer pool and segment, and delay
// constants of 1 to keep fixed stalls short on test machines.
func logManager(t testing.TB, kappa, batch, consumers, segment int) *Manager {
	t.Helper()
	m, err := New(
		WithKappa(kappa),
		WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(1, batch, consumers, segment)),
		WithDelayConstants(1, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLogFanoutSingleShard(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if !lg.TryAppend(i) {
			t.Fatalf("TryAppend(%d) failed with room to spare", i)
		}
	}
	// Both cursors independently observe the full stream in append
	// order (one shard, so the order is total).
	for _, c := range []*Cursor[uint64]{c1, c2} {
		for i := uint64(0); i < 20; i++ {
			v, ok := c.TryNext()
			if !ok || v != i {
				t.Fatalf("cursor read %d: got (%d, %v), want (%d, true)", i, v, ok, i)
			}
		}
		if v, ok := c.TryNext(); ok {
			t.Fatalf("drained cursor delivered %d", v)
		}
	}
	if lag := c1.Lag(); lag != 0 {
		t.Fatalf("drained cursor lag = %d, want 0", lag)
	}
	st := lg.Stats()
	if st.Appends != 20 || st.Reads != 40 {
		t.Fatalf("stats appends/reads = %d/%d, want 20/40", st.Appends, st.Reads)
	}
	if st.Len != 20 {
		t.Fatalf("stats len = %d, want 20 (nothing trimmed yet)", st.Len)
	}
}

func TestLogReplayAndTailAttach(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		lg.TryAppend(i)
	}
	// A head cursor replays the retained window...
	replay, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := replay.TryNext(); !ok || v != 0 {
		t.Fatalf("replay cursor first read = (%d, %v), want (0, true)", v, ok)
	}
	// ...a tail cursor only sees appends after its attach.
	live, err := lg.NewTailCursor()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := live.TryNext(); ok {
		t.Fatalf("tail cursor delivered retained entry %d", v)
	}
	lg.TryAppend(100)
	if v, ok := live.TryNext(); !ok || v != 100 {
		t.Fatalf("tail cursor read = (%d, %v), want (100, true)", v, ok)
	}
}

func TestLogKeyedOrder(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(4), WithLogCapacity(256),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	// Interleave two keys; each key's entries stay in order even though
	// cross-key order is unspecified.
	for i := uint64(1); i <= 30; i++ {
		if !lg.TryAppendKeyed(0, i) {
			t.Fatal("keyed append to shard 0 failed")
		}
		if !lg.TryAppendKeyed(1, i<<8) {
			t.Fatal("keyed append to shard 1 failed")
		}
	}
	var last0, last1 uint64
	for i := 0; i < 60; i++ {
		v, ok := c.TryNext()
		if !ok {
			t.Fatalf("read %d: cursor drained early", i)
		}
		if v < 256 {
			if v != last0+1 {
				t.Fatalf("key 0 out of order: got %d after %d", v, last0)
			}
			last0 = v
		} else {
			if v>>8 != (last1>>8)+1 {
				t.Fatalf("key 1 out of order: got %d after %d", v>>8, last1>>8)
			}
			last1 = v
		}
	}
	if last0 != 30 || last1 != 30<<8 {
		t.Fatalf("incomplete delivery: key0 %d/30, key1 %d/30", last0, last1>>8)
	}
}

func TestLogBatchOps(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(2), WithLogCapacity(128),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]uint64, 50)
	for i := range vs {
		vs[i] = uint64(i)
	}
	n, err := lg.AppendBatch(context.Background(), vs)
	if err != nil || n != 50 {
		t.Fatalf("AppendBatch = (%d, %v), want (50, nil)", n, err)
	}
	seen := make(map[uint64]bool)
	for len(seen) < 50 {
		got, err := c.NextBatch(context.Background(), 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("entry %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	if lg.Len() != 50 {
		t.Fatalf("Len = %d, want 50", lg.Len())
	}
}

func TestLogTrimRespectsMinCursor(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		lg.TryAppend(i)
	}
	for i := 0; i < 40; i++ {
		fast.TryNext()
	}
	for i := 0; i < 20; i++ {
		slow.TryNext()
	}
	// The slow cursor is at 20: trim may free exactly one 16-entry
	// segment (the aligned point below the minimum), never more.
	if freed := lg.Trim(); freed != 16 {
		t.Fatalf("Trim freed %d, want 16 (min cursor at 20, segment 16)", freed)
	}
	if lg.Len() != 24 {
		t.Fatalf("Len after trim = %d, want 24", lg.Len())
	}
	// The slow cursor's remaining entries are intact.
	for i := uint64(20); i < 40; i++ {
		v, ok := slow.TryNext()
		if !ok || v != i {
			t.Fatalf("slow read after trim = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	// Everyone has consumed everything: trim reclaims the rest.
	if freed := lg.Trim(); freed != 16 {
		t.Fatalf("second Trim freed %d, want 16 (aligned below 40)", freed)
	}
	st := lg.Stats()
	if st.Trimmed != 32 {
		t.Fatalf("stats trimmed = %d, want 32", st.Trimmed)
	}
}

func TestLogTrimWithoutCursors(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		lg.TryAppend(i)
	}
	// An unsubscribed log retains nothing: trim frees every full
	// segment below the tail.
	if freed := lg.Trim(); freed != 32 {
		t.Fatalf("Trim freed %d, want 32", freed)
	}
	if lg.Len() != 8 {
		t.Fatalf("Len = %d, want 8", lg.Len())
	}
}

func TestLogAutoTrimOnFull(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	// Append far beyond capacity with the cursor keeping pace: the
	// append critical sections reclaim consumed segments in-line, so no
	// explicit Trim is ever needed.
	for i := uint64(0); i < 1000; i++ {
		if !lg.TryAppend(i) {
			t.Fatalf("append %d failed with the cursor caught up", i)
		}
		v, ok := c.TryNext()
		if !ok || v != i {
			t.Fatalf("read %d = (%d, %v)", i, v, ok)
		}
	}
	// A full shard whose segment the slowest cursor still pins rejects.
	lagged, err := lg.NewTailCursor()
	if err != nil {
		t.Fatal(err)
	}
	_ = lagged
	full := 0
	for i := uint64(0); i < 200; i++ {
		if !lg.TryAppend(1000 + i) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("a pinned log never reported full")
	}
	st := lg.Stats()
	if st.FullRejects == 0 {
		t.Fatal("full rejects not counted")
	}
}

func TestLogTrimToClampsLaggards(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 48; i++ {
		lg.TryAppend(i)
	}
	// Bound retention to 16: the untouched cursor is force-advanced
	// from 0 to 32 (counted as drops) and two segments are freed.
	if freed := lg.TrimTo(16); freed != 32 {
		t.Fatalf("TrimTo freed %d, want 32", freed)
	}
	if lg.Len() != 16 {
		t.Fatalf("Len = %d, want 16", lg.Len())
	}
	v, ok := c.TryNext()
	if !ok || v != 32 {
		t.Fatalf("clamped cursor read = (%d, %v), want (32, true)", v, ok)
	}
	st := lg.Stats()
	if st.Drops != 32 {
		t.Fatalf("stats drops = %d, want 32", st.Drops)
	}
	if st.Consumers[c.Slot()].Drops != 32 {
		t.Fatalf("slot drops = %d, want 32", st.Consumers[c.Slot()].Drops)
	}
}

func TestLogCursorSlots(t *testing.T) {
	m := logManager(t, 2, 8, 2, 16)
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.NewCursor(); !errors.Is(err, ErrLogConsumers) {
		t.Fatalf("third cursor: err = %v, want ErrLogConsumers", err)
	}
	lg.TryAppend(7)
	c2.Close()
	c2.Close() // idempotent
	if _, ok := c2.TryNext(); ok {
		t.Fatal("closed cursor delivered an entry")
	}
	if _, err := c2.Next(context.Background()); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next on closed cursor: err = %v, want ErrCursorClosed", err)
	}
	// The slot is free again; a fresh cursor reuses it with reset
	// counters and replay-from-head semantics.
	c3, err := lg.NewCursor()
	if err != nil {
		t.Fatalf("reattach after Close: %v", err)
	}
	if c3.Slot() != c2.Slot() {
		t.Fatalf("reattached slot = %d, want %d", c3.Slot(), c2.Slot())
	}
	if v, ok := c3.TryNext(); !ok || v != 7 {
		t.Fatalf("reattached cursor read = (%d, %v), want (7, true)", v, ok)
	}
	if st := lg.Stats(); st.Consumers[c3.Slot()].Reads != 1 {
		t.Fatalf("reattached slot reads = %d, want 1 (reset on attach)", st.Consumers[c3.Slot()].Reads)
	}
	_ = c1
}

func TestLogConstructionErrors(t *testing.T) {
	// L=1 cannot host the two-lock cursor paths.
	one, err := New(WithKappa(2), WithMaxLocks(1),
		WithMaxCriticalSteps(LogCriticalSteps(1, 8, 8, 64)), WithDelayConstants(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLog[uint64](one); err == nil {
		t.Fatal("NewLog accepted a MaxLocks(1) manager")
	}
	// A budget the manager's T cannot cover is a construction error.
	small := logManager(t, 2, 1, 1, 1)
	if _, err := NewLog[uint64](small); err == nil {
		t.Fatal("oversized log budget accepted")
	}
	// A segment larger than the per-shard capacity cannot be freed in
	// one section.
	m := logManager(t, 2, 8, 8, 64)
	if _, err := NewLog[uint64](m, WithLogShards(8), WithLogCapacity(64), WithLogSegment(64)); err == nil {
		t.Fatal("segment exceeding per-shard capacity accepted")
	}
	// Option validation.
	for _, opt := range []LogOption{
		WithLogShards(0), WithLogCapacity(-1), WithLogSegment(0),
		WithLogBatch(0), WithLogConsumers(0),
	} {
		if _, err := NewLog[uint64](m, opt); err == nil {
			t.Fatal("invalid option accepted")
		}
	}
}

func TestLogConcurrentFanout(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		items     = 250
	)
	m, err := New(
		WithUnknownBounds(producers+consumers+4),
		WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(1, 8, consumers, 16)),
	)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLog[uint64](m, WithLogShards(4), WithLogCapacity(256),
		WithLogSegment(16), WithLogConsumers(consumers), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	curs := make([]*Cursor[uint64], consumers)
	for i := range curs {
		if curs[i], err = lg.NewCursor(); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		wg.Add(1)
		go func(pid uint64) {
			defer wg.Done()
			for seq := uint64(1); seq <= items; seq++ {
				if err := lg.AppendKeyed(ctx, pid, pid<<32|seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(pid))
	}
	errs := make(chan error, consumers)
	for ci := 0; ci < consumers; ci++ {
		wg.Add(1)
		go func(c *Cursor[uint64]) {
			defer wg.Done()
			last := make([]uint64, producers)
			got := 0
			for got < producers*items {
				v, ok := c.TryNext()
				if !ok {
					runtime.Gosched()
					continue
				}
				pid, seq := v>>32, v&0xffffffff
				// Keyed appends pin a producer to one shard, so each
				// producer's stream must arrive gapless and in order.
				if seq != last[pid]+1 {
					errs <- errNonSeq(pid, last[pid], seq)
					return
				}
				last[pid] = seq
				got++
			}
		}(curs[ci])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := lg.Stats()
	if st.Appends != producers*items {
		t.Fatalf("stats appends = %d, want %d", st.Appends, producers*items)
	}
	if st.Reads != uint64(consumers)*producers*items {
		t.Fatalf("stats reads = %d, want %d", st.Reads, consumers*producers*items)
	}
}

type errNonSeqT struct{ pid, last, got uint64 }

func errNonSeq(pid, last, got uint64) error { return errNonSeqT{pid, last, got} }
func (e errNonSeqT) Error() string {
	return "producer stream out of order"
}

// TestLogTrimNotBlockedByStalledConsumer is the helping regression
// test: a consumer stalled in the middle of its cursor-advance
// critical section — it holds both the shard and cursor locks — must
// not block Trim. The trimmer's acquisition helps the stalled advance
// to completion and then reclaims; only the stalled goroutine itself
// stays blocked.
func TestLogTrimNotBlockedByStalledConsumer(t *testing.T) {
	gate := make(chan struct{})
	var armed, hit atomic.Bool
	// A codec whose first armed decode blocks: the consumer's own Next
	// execution parks inside the critical section. Helper re-executions
	// see the consumed gate and run through, which is the point.
	vc := CodecFunc(1,
		func(v uint64, dst []uint64) { dst[0] = v },
		func(src []uint64) uint64 {
			if armed.Load() && hit.CompareAndSwap(false, true) {
				<-gate
			}
			return src[0]
		})
	m := newManager(t, WithKappa(4), WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(1, 8, 2, 16)), WithDelayConstants(1, 1))
	lg, err := NewLogOf[uint64](m, vc, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if !lg.TryAppend(i) {
			t.Fatal("setup append failed")
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok := cur.TryNext(); !ok {
			t.Fatal("setup read failed")
		}
	}
	armed.Store(true)
	stalled := make(chan uint64, 1)
	go func() {
		v, _ := cur.TryNext()
		stalled <- v
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !hit.Load() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never reached the stall point")
		}
		time.Sleep(time.Millisecond)
	}
	// The consumer is parked inside its critical section, holding both
	// locks. Trim must still complete: its acquisition of the shard
	// lock helps the advance finish, sees min position 17, and frees
	// the consumed 16-entry segment.
	done := make(chan int, 1)
	go func() { done <- lg.Trim() }()
	select {
	case freed := <-done:
		if freed != 16 {
			t.Fatalf("Trim freed %d, want 16", freed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Trim blocked behind a stalled consumer")
	}
	// Release the consumer; the helped advance took effect exactly
	// once, so it returns entry 16 and the backlog is 15.
	close(gate)
	if v := <-stalled; v != 16 {
		t.Fatalf("stalled read returned %d, want 16", v)
	}
	if lag := cur.Lag(); lag != 15 {
		t.Fatalf("lag after stalled read = %d, want 15", lag)
	}
}

func TestLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithUnknownBounds(4), WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(1, 1, 2, 16)))
	lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i++ {
		if !lg.TryAppend(i) {
			t.Fatal("warmup append failed")
		}
		if _, ok := cur.TryNext(); !ok {
			t.Fatal("warmup read failed")
		}
	}
	// The scalar append and cursor-advance frames keep both hot paths
	// allocation-free (in-section auto-trim included: the warmup laps
	// the 64-slot ring eight times).
	avg := testing.AllocsPerRun(400, func() {
		if !lg.TryAppend(7) {
			t.Fatal("append failed")
		}
		if _, ok := cur.TryNext(); !ok {
			t.Fatal("next failed")
		}
	})
	if avg >= 0.5 {
		t.Fatalf("append+next averages %.2f allocs/op, want < 0.5", avg)
	}
}

// TestLogWideCodecStall covers the single append and next bodies under
// a multi-word codec in the holder-stall regime: append frames carry
// the wide element as a plain field, next frames route it through their
// result cell, and both encode inside the critical section — so armed
// encodes park lock holders and competitors re-execute their bodies.
// Effects must be exactly-once: the solo cursor sees every producer's
// stream complete and in order, the cursor shared by three goroutines
// delivers every entry to exactly one of them, and the counters agree.
func TestLogWideCodecStall(t *testing.T) {
	const (
		producers = 2
		perProd   = 40
		sharers   = 3
		total     = producers * perProd
	)
	var armed atomic.Bool
	vc := stallingPairCodec(&armed, 8, 500*time.Microsecond)
	m := newManager(t, WithKappa(producers+sharers+1), WithMaxLocks(2),
		WithMaxCriticalSteps(LogCriticalSteps(2, 1, 2, 16)), WithDelayConstants(1, 1))
	lg, err := NewLogOf[widePair](m, vc, WithLogShards(1), WithLogCapacity(64),
		WithLogSegment(16), WithLogConsumers(2), WithLogBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := lg.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	var wg sync.WaitGroup
	// Producer w appends A = w + producers*seq: A identifies the stream
	// and its position.
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perProd; seq++ {
				for !lg.TryAppend(newWidePair(uint64(w + producers*seq))) {
					runtime.Gosched() // full until the cursors catch up
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var next [producers]int
		for n := 0; n < total; {
			v, ok := solo.TryNext()
			if !ok {
				runtime.Gosched()
				continue
			}
			w, seq := int(v.A%producers), int(v.A/producers)
			if !v.sane() || seq != next[w] {
				t.Errorf("solo cursor: got %+v (producer %d seq %d), want seq %d", v, w, seq, next[w])
				return
			}
			next[w]++
			n++
		}
	}()
	var delivered [total]atomic.Int32
	var taken atomic.Int32
	for s := 0; s < sharers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for taken.Load() < total {
				v, ok := shared.TryNext()
				if !ok {
					runtime.Gosched()
					continue
				}
				if !v.sane() || v.A >= total {
					t.Errorf("shared cursor: decoded %+v", v)
					return
				}
				delivered[v.A].Add(1)
				taken.Add(1)
			}
		}()
	}
	wg.Wait()
	armed.Store(false)
	for a := range delivered {
		if n := delivered[a].Load(); n != 1 {
			t.Fatalf("shared cursor delivered entry %d %d times, want exactly once", a, n)
		}
	}
	st := lg.Stats()
	if st.Appends != total || st.Reads != 2*total {
		t.Fatalf("stats = %d appends, %d reads; want %d, %d", st.Appends, st.Reads, total, 2*total)
	}
	for _, c := range st.Consumers {
		if c.Reads != total || c.Lag != 0 {
			t.Fatalf("consumer %d: %d reads, lag %d; want %d, 0", c.Slot, c.Reads, c.Lag, total)
		}
	}
	if m.Stats().Helps == 0 {
		t.Fatal("no attempt helped a stalled holder: bodies were never re-executed")
	}
}
