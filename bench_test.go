package wflocks_test

import (
	"bufio"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wflocks"
	"wflocks/internal/bench"
	"wflocks/internal/serve"
	"wflocks/internal/serve/loadgen"
	"wflocks/internal/workload"
)

// One benchmark per experiment: each regenerates the table reproducing
// a quantitative claim of the paper (`go run ./cmd/wfbench -list`
// prints the index). Run a single experiment's bench with e.g.:
//
//	go test -bench=BenchmarkE3 -benchtime=1x
//
// The full-scale tables come from `go run ./cmd/wfbench -scale=full`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp := bench.Lookup(id)
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1StepBound(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2Fairness(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Philosophers(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4RetrySteps(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Unknown(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6ActiveSet(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7Idempotence(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8Baselines(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9DelayAblation(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10Native(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Adaptivity(b *testing.B)   { benchExperiment(b, "E11") }

// Public-API micro-benchmarks. The headline names (DoUncontended,
// DoContended, ...) run the adaptive unknown-bounds configuration —
// the library's recommended default — and their *Known siblings run the
// paper's base algorithm with fixed κ-derived delays, so the pair
// quantifies what delay regime costs on the same workload. The
// TryLock/Do pair additionally quantifies the ergonomic path's
// overhead: Do adds call validation, a pooled handle acquire/release,
// and the retry-policy indirection on top of the same single attempt.
// Body closures and lock slices are hoisted out of the loops: with
// arena-backed attempt state, the steady-state paths run allocation-
// free (see TestDoAllocs). Compare with:
//
//	go test -bench='Uncontended' -benchtime=10000x

// benchManager builds a micro-benchmark manager for one delay variant,
// failing the benchmark on configuration errors.
func benchManager(b *testing.B, v bench.Variant, procs, maxLocks, maxCritical int) *wflocks.Manager {
	b.Helper()
	m, err := bench.NewManager(v, procs, maxLocks, maxCritical)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkTryLockUncontended(b *testing.B)      { benchTryLockUncontended(b, bench.VariantAdaptive) }
func BenchmarkTryLockUncontendedKnown(b *testing.B) { benchTryLockUncontended(b, bench.VariantKnown) }

func benchTryLockUncontended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 4, 2, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	p := m.NewProcess()
	locks := []*wflocks.Lock{l}
	body := func(tx *wflocks.Tx) {
		v := wflocks.Get(tx, c)
		wflocks.Put(tx, c, v+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := m.TryLock(p, locks, 2, body)
		if err != nil || !ok {
			b.Fatal("uncontended TryLock failed")
		}
	}
}

func BenchmarkDoUncontended(b *testing.B)      { benchDoUncontended(b, bench.VariantAdaptive) }
func BenchmarkDoUncontendedKnown(b *testing.B) { benchDoUncontended(b, bench.VariantKnown) }

func benchDoUncontended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 4, 2, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	locks := []*wflocks.Lock{l}
	body := func(tx *wflocks.Tx) {
		v := wflocks.Get(tx, c)
		wflocks.Put(tx, c, v+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Do(locks, 2, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockContended(b *testing.B)      { benchLockContended(b, bench.VariantAdaptive) }
func BenchmarkLockContendedKnown(b *testing.B) { benchLockContended(b, bench.VariantKnown) }

func benchLockContended(b *testing.B, v bench.Variant) {
	// RunParallel launches GOMAXPROCS goroutines; κ and P must cover
	// them.
	m := benchManager(b, v, 2*runtime.GOMAXPROCS(0), 1, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := m.NewProcess()
		locks := []*wflocks.Lock{l}
		body := func(tx *wflocks.Tx) {
			v := wflocks.Get(tx, c)
			wflocks.Put(tx, c, v+1)
		}
		for pb.Next() {
			if _, err := m.Lock(p, locks, 2, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkDoContended(b *testing.B)      { benchDoContended(b, bench.VariantAdaptive) }
func BenchmarkDoContendedKnown(b *testing.B) { benchDoContended(b, bench.VariantKnown) }

func benchDoContended(b *testing.B, v bench.Variant) {
	m := benchManager(b, v, 2*runtime.GOMAXPROCS(0), 1, 8)
	l := m.NewLock()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		locks := []*wflocks.Lock{l}
		body := func(tx *wflocks.Tx) {
			v := wflocks.Get(tx, c)
			wflocks.Put(tx, c, v+1)
		}
		for pb.Next() {
			if err := m.Do(locks, 2, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// The structure benchmarks below are the scenario tables of
// `wfbench -workload` under testing.B: each builds its implementations
// with internal/bench's constructors (the same sizing, stall codec and
// prefill the tables use) and drives internal/bench's operation mixes
// from b.RunParallel. Stalled groups are the headline — the regime the
// paper targets: lock holders that stall mid-critical-section (a
// preempted vCPU, a page fault, a GC pause), modeled by a value codec
// whose encode periodically sleeps (bench.StallDur every
// bench.StallPeriod value writes) — inside the critical section for the
// wait-free structures, while holding the mutex for the baselines (see
// internal/bench.StallPoint). A stalled mutex holder blocks everyone
// behind it; a stalled wait-free winner is helped, so only the stalled
// goroutine loses time and the sleeps of different workers overlap. The
// nostall groups show the raw regime, where the blocking baselines win
// on constant factors; both numbers together are the honest story. The
// wait-free rows run the adaptive default, with one -known sibling at
// each family's headline configuration.

// stallPoint returns a fresh stall point for one sub-benchmark, or nil
// for the raw regime.
func stallPoint(stalled bool) *bench.StallPoint {
	if !stalled {
		return nil
	}
	return bench.NewStallPoint(bench.StallPeriod, bench.StallDur)
}

// benchWorkers drives one operation closure per RunParallel goroutine
// (worker(w) builds goroutine w's, with its private op stream).
func benchWorkers(b *testing.B, worker func(w int) func(i int) error) {
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		op := worker(int(next.Add(1)))
		for i := 0; pb.Next(); i++ {
			if err := op(i); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
}

// BenchmarkMap sweeps the wfmap shard count against a sync.Mutex-
// sharded baseline on the map:read scenario (90/10 get/put). Total
// capacity is held at 2× the keyspace while shards grow, so each
// doubling both halves the per-lock contention and shrinks the
// per-shard region — and with it the critical-section bound T that the
// attempts' fixed delays are proportional to. Throughput therefore
// scales superlinearly for wfmap (8-shard is well over 3× 1-shard at
// GOMAXPROCS=8); the mutex baseline gives the blocking reference.
// Compare with:
//
//	go test -bench=Map -benchtime=500x -cpu 8
func BenchmarkMap(b *testing.B) {
	sc := workload.LookupMapScenario("map:read")
	run := func(b *testing.B, kv bench.KV) {
		if err := bench.PrefillMap(sc, kv); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		benchWorkers(b, func(w int) func(int) error { return bench.MapWorker(sc, kv, w) })
	}
	wfmap := func(v bench.Variant, shards int) func(*testing.B) {
		return func(b *testing.B) {
			// κ/P cover the RunParallel goroutine count.
			mp, _, err := bench.NewWfMap(v, runtime.GOMAXPROCS(0), sc.Keys, shards, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			run(b, mp)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wfmap/shards=%d", shards), wfmap(bench.VariantAdaptive, shards))
	}
	b.Run("wfmap-known/shards=8", wfmap(bench.VariantKnown, 8))
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mutex/shards=%d", shards), func(b *testing.B) {
			run(b, bench.NewMutexMap(shards))
		})
	}
}

// BenchmarkCache sweeps the wfcache shard count × key skew against the
// classic single-mutex+container/list LRU. Expect the 8-shard wfcache
// to beat the mutex LRU on the cache:zipf shape at -cpu 8 under
// stalls. Each sub-benchmark also reports its measured hit rate.
// Compare with:
//
//	go test -bench=Cache -benchtime=500x -cpu 8
func BenchmarkCache(b *testing.B) {
	par, workers := benchCacheWorkers()
	run := func(b *testing.B, sc *workload.CacheScenario, sp *bench.StallPoint, c bench.CountedKV) {
		bench.PrefillCache(sc, c)
		b.SetParallelism(par)
		sp.Arm()
		h0, m0, _ := c.Counters()
		benchWorkers(b, func(w int) func(int) error { return bench.CacheWorker(sc, c, w) })
		b.ReportMetric(bench.HitRate(c, h0, m0), "hitrate")
	}
	wfcache := func(sc *workload.CacheScenario, v bench.Variant, shards int, stalled bool) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(stalled)
			c, _, err := bench.NewWfCache(sc, v, shards, workers, sp)
			if err != nil {
				b.Fatal(err)
			}
			run(b, sc, sp, c)
		}
	}
	mutexlru := func(sc *workload.CacheScenario, stalled bool) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(stalled)
			run(b, sc, sp, bench.NewMutexLRU(sc.Capacity, sp))
		}
	}
	zipf := workload.LookupCacheScenario("cache:zipf")
	for _, sc := range []*workload.CacheScenario{zipf, workload.LookupCacheScenario("cache:read")} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/wfcache/shards=%d", sc.Name, shards), wfcache(sc, bench.VariantAdaptive, shards, true))
		}
		b.Run(sc.Name+"/mutexlru", mutexlru(sc, true))
	}
	b.Run("cache:zipf/wfcache-known/shards=8", wfcache(zipf, bench.VariantKnown, 8, true))
	// The raw regime for the headline pair, for scale.
	b.Run("nostall/cache:zipf/wfcache/shards=8", wfcache(zipf, bench.VariantAdaptive, 8, false))
	b.Run("nostall/cache:zipf/mutexlru", mutexlru(zipf, false))
	// The read path alone, beside the mixed row above: every Get hits a
	// prefilled key, so this prices one lock-free probe and nothing else.
	b.Run("nostall/cache:zipf/wfcache/shards=8/get-hit", func(b *testing.B) {
		c, _, err := bench.NewWfCache(zipf, bench.VariantAdaptive, 8, workers, nil)
		if err != nil {
			b.Fatal(err)
		}
		bench.PrefillCache(zipf, c)
		var resident []uint64 // prefilling an uneven shard displaces a few keys
		for k := uint64(0); k < uint64(zipf.Capacity); k++ {
			if _, ok := c.Get(k); ok {
				resident = append(resident, k)
			}
		}
		b.SetParallelism(par)
		b.ReportAllocs()
		benchWorkers(b, func(w int) func(int) error {
			return func(i int) error {
				k := resident[(w*7+i)%len(resident)]
				if _, ok := c.Get(k); !ok {
					return fmt.Errorf("Get(%d) missed a resident key", k)
				}
				return nil
			}
		})
	})
}

// benchCacheWorkers pins the worker-goroutine count: the stall regime
// is about overlap — sleeping workers must leave runnable competitors
// behind to help (wait-free) or to block (mutex) — so the benchmarks
// need real concurrency even when GOMAXPROCS is low. It returns the
// b.SetParallelism multiplier and the resulting total worker count.
func benchCacheWorkers() (par, workers int) {
	procs := runtime.GOMAXPROCS(0)
	par = 1
	for procs*par < 8 {
		par++
	}
	return par, procs * par
}

// BenchmarkTxn sweeps the keys-per-transaction count L over wfmap's
// multi-lock Atomic path against a sorted-multi-mutex baseline on the
// txn:transfer scenario, stalled. Each transaction transfers value
// between L keys. The known-bounds sibling pays fixed delays growing as
// κ²L²·T(L) — T itself is L single-shard budgets — so at L=8 the delay
// product is its dominant cost; the adaptive rows show what tracking
// actual contention buys back. At small L helping absorbs stalls that
// serialize the blocking baseline across every held shard. The worker
// count is pinned small (κ² pricing) and each run audits transfer
// conservation. Compare with:
//
//	go test -bench=Txn -benchtime=200x -cpu 4
const benchTxnWorkers = 4

func BenchmarkTxn(b *testing.B) {
	sc := workload.LookupTxnScenario("txn:transfer")
	// Pin the worker count to benchTxnWorkers regardless of -cpu, as
	// benchCacheWorkers does for the cache.
	procs := runtime.GOMAXPROCS(0)
	par := 1
	for procs*par < benchTxnWorkers {
		par++
	}
	run := func(b *testing.B, l int, sp *bench.StallPoint, m bench.TxnMap) {
		bench.PrefillTxn(sc, m)
		b.SetParallelism(par)
		sp.Arm()
		benchWorkers(b, func(w int) func(int) error { return bench.TxnWorker(sc, m, l, w) })
		if err := bench.AuditTxn(sc, m); err != nil {
			b.Fatal(err)
		}
	}
	wfmap := func(v bench.Variant, l int) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(true)
			mp, _, err := bench.NewWfMap(v, procs*par, sc.Keys, bench.TxnShards, l, sp)
			if err != nil {
				b.Fatal(err)
			}
			run(b, l, sp, mp)
		}
	}
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wfmap/L=%d", l), wfmap(bench.VariantAdaptive, l))
	}
	b.Run("wfmap-known/L=8", wfmap(bench.VariantKnown, 8))
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("multimutex/L=%d", l), func(b *testing.B) {
			sp := stallPoint(true)
			run(b, l, sp, bench.MutexTxnMap{MultiMutexMap: bench.NewMultiMutexMap(bench.TxnShards, sp)})
		})
	}
}

func BenchmarkCellReadWrite(b *testing.B) {
	m, err := wflocks.New(wflocks.WithKappa(2))
	if err != nil {
		b.Fatal(err)
	}
	p := m.NewProcess()
	c := wflocks.NewCell(uint64(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(p, c.Get(p)+1)
	}
}

func BenchmarkStructCellReadWrite(b *testing.B) {
	type pair struct{ A, B uint64 }
	codec := wflocks.CodecFunc(2,
		func(v pair, dst []uint64) { dst[0], dst[1] = v.A, v.B },
		func(src []uint64) pair { return pair{src[0], src[1]} })
	m, err := wflocks.New(wflocks.WithKappa(2))
	if err != nil {
		b.Fatal(err)
	}
	p := m.NewProcess()
	c := wflocks.NewCellOf(codec, pair{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.Get(p)
		v.A++
		v.B++
		c.Set(p, v)
	}
}

// BenchmarkQueue sweeps the WorkPool shard count (plus the single-ring
// Queue) against the mutex+ring and buffered-channel baselines on a
// balanced MPMC shape — every worker enqueues one element and dequeues
// one per iteration — at the queue:mpmc scenario's capacity. Stalls
// ride the value-write path on every side that has a lock to hold:
// wfqueue encodes stall inside critical sections, the mutex+ring stalls
// while holding its mutex, and the channel draws its stalls outside the
// op (a goroutine cannot sleep holding the runtime's channel lock),
// which makes it the stall-tolerant reference. Expect the 8-shard
// WorkPool to beat the mutex+ring well beyond 2× under stalls. Compare
// with:
//
//	go test -bench=Queue -benchtime=500x -cpu 8
func BenchmarkQueue(b *testing.B) {
	sc := workload.LookupQueueScenario("queue:mpmc")
	par, workers := benchCacheWorkers()
	// tryQueue is the surface the balanced iteration needs; all four
	// implementations provide it.
	type tryQueue interface {
		TryEnqueue(v uint64) bool
		TryDequeue() (uint64, bool)
	}
	// The queue never grows beyond the worker count, so full rejects
	// are rare and empty rejects only happen transiently.
	queue := func(stalled bool, mk func(sp *bench.StallPoint) (tryQueue, error)) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(stalled)
			q, err := mk(sp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(par)
			sp.Arm()
			benchWorkers(b, func(w int) func(int) error {
				v := uint64(w) << 32
				return func(int) error {
					v++
					for !q.TryEnqueue(v) {
						runtime.Gosched()
					}
					for {
						if _, ok := q.TryDequeue(); ok {
							return nil
						}
						runtime.Gosched()
					}
				}
			})
			if l, ok := q.(interface{ Len() int }); ok && l.Len() != 0 {
				b.Fatalf("queue holds %d elements after balanced run", l.Len())
			}
			if wp, ok := q.(*wflocks.WorkPool[uint64]); ok {
				b.ReportMetric(float64(wp.Stats().Steals), "steals")
			}
		}
	}
	workpool := func(shards int) func(*bench.StallPoint) (tryQueue, error) {
		return func(sp *bench.StallPoint) (tryQueue, error) {
			wp, _, err := bench.NewWfPool(sc.Capacity, shards, workers+2, sp)
			return wp, err
		}
	}
	mutexring := func(sp *bench.StallPoint) (tryQueue, error) { return bench.NewMutexRing(sc.Capacity, sp), nil }
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workpool/shards=%d", shards), queue(true, workpool(shards)))
	}
	b.Run("wfqueue", queue(true, func(sp *bench.StallPoint) (tryQueue, error) {
		q, _, err := bench.NewWfQueue(sc.Capacity, workers+2, sp)
		return q, err
	}))
	b.Run("mutexring", queue(true, mutexring))
	b.Run("channel", queue(true, func(sp *bench.StallPoint) (tryQueue, error) {
		return bench.NewChanQueue(sc.Capacity, sp), nil
	}))
	b.Run("nostall/workpool/shards=8", queue(false, workpool(8)))
	b.Run("nostall/mutexring", queue(false, mutexring))
}

// BenchmarkServe drives the wfserve request pipeline end to end over
// the in-process loopback transport: protocol parse, slab admission,
// backend execution on the connection's writer, ordered pipelined
// responses.
// One pipelined connection issues GETs against a prefilled backend —
// a closed-loop throughput shape (the open-loop tail-latency numbers
// live in `wfbench -workload service:read`, where coordinated-omission
// safety makes them meaningful).
//
// backend=cache/paced is the idle-cost row: the same connection sends
// one GET every 500µs and waits for its reply, so the server is idle
// nine tenths of the time. B/op is process-wide and attempts/req is the
// manager's attempt counter over the run, so both include whatever the
// server does between requests. It reads zero: nothing runs between
// requests, and a served GET takes no lock.
func BenchmarkServe(b *testing.B) {
	for _, backend := range []string{"cache", "map", "mutex"} {
		b.Run("backend="+backend, func(b *testing.B) { benchServe(b, backend, 0) })
	}
	b.Run("backend=cache/paced", func(b *testing.B) { benchServe(b, "cache", 500*time.Microsecond) })
}

func benchServe(b *testing.B, backend string, pace time.Duration) {
	const keys = 256
	s, err := serve.NewServer(serve.Config{
		Backend:     backend,
		Shards:      8,
		Capacity:    2 * keys,
		MaxKeyBytes: 16,
		MaxValBytes: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	lis := serve.NewLoopback()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Error(err)
		}
		if err := <-serveDone; err != nil {
			b.Error(err)
		}
	}()
	for k := 0; k < keys; k++ {
		if err := s.Backend().Set(loadgen.Key(k), loadgen.Val(32), 0); err != nil {
			b.Fatal(err)
		}
	}

	conn, err := lis.Dial()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	b.ResetTimer()
	if pace > 0 {
		attempts := s.Manager().Stats().Attempts
		var buf []byte
		next := time.Now()
		for i := 0; i < b.N; i++ {
			time.Sleep(time.Until(next))
			next = next.Add(pace)
			buf = serve.AppendCommand(buf[:0], "GET", loadgen.Key(i%keys))
			if _, err := conn.Write(buf); err != nil {
				b.Fatal(err)
			}
			if r, err := serve.ReadReply(br); err != nil || r.Kind != serve.ReplyBulk {
				b.Fatalf("reply %d = %+v, %v", i, r, err)
			}
		}
		b.ReportMetric(float64(s.Manager().Stats().Attempts-attempts)/float64(b.N), "attempts/req")
		return
	}
	writeDone := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(conn)
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = serve.AppendCommand(buf[:0], "GET", loadgen.Key(i%keys))
			if _, err := bw.Write(buf); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- bw.Flush()
	}()
	for i := 0; i < b.N; i++ {
		r, err := serve.ReadReply(br)
		if err != nil {
			b.Fatal(err)
		}
		if r.Kind != serve.ReplyBulk {
			b.Fatalf("reply %d = %+v", i, r)
		}
	}
	if err := <-writeDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLog sweeps the wflog shard count against the mutex+slice
// broadcast baseline on a balanced fan-out shape at the log:fanout
// scenario's capacity and segment: every worker owns a cursor, appends
// one entry per iteration and drains its own cursor, so each entry is
// delivered to every worker and retention stays near the worker count.
// wflog encodes stall inside append and cursor-advance critical
// sections, the mutex+slice log stalls while holding its one mutex on
// appends and reads. The channel fan-out baseline is covered by the
// scenario tables (`wfbench -workload log:fanout`) — its broadcaster
// goroutine does not fit the per-iteration lifecycle here. Expect the
// 8-shard wflog to beat the mutex+slice log well beyond 2× under
// stalls. Compare with:
//
//	go test -bench=Log -benchtime=200x -cpu 8
func BenchmarkLog(b *testing.B) {
	par, workers := benchCacheWorkers()
	sc := *workload.LookupLogScenario("log:fanout")
	sc.Consumers = workers // one cursor per worker
	// reader is one worker's cursor: its non-blocking read and detach.
	type reader struct {
		next  func() (uint64, bool)
		close func()
	}
	// The balanced broadcast iteration: append one, drain the worker's
	// own cursor. The append retry loop also drains, so a full ring
	// pinned by the spinning worker's own backlog always makes
	// progress; workers detach their cursors on exit so finished workers
	// stop pinning reclamation for the rest.
	round := func(b *testing.B, sp *bench.StallPoint, append func(uint64) bool, attach func() (reader, error)) {
		b.SetParallelism(par)
		sp.Arm()
		var next atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r, err := attach()
			if err != nil {
				b.Error(err)
				return
			}
			defer r.close()
			v := next.Add(1) << 32
			for pb.Next() {
				v++
				for !append(v) {
					if _, ok := r.next(); !ok {
						runtime.Gosched()
					}
				}
				for {
					if _, ok := r.next(); !ok {
						break
					}
				}
			}
		})
	}
	wflog := func(shards int, stalled bool) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(stalled)
			lg, _, err := bench.NewWfLog(&sc, shards, workers+2, sp)
			if err != nil {
				b.Fatal(err)
			}
			round(b, sp, lg.TryAppend, func() (reader, error) {
				cur, err := lg.NewCursor()
				if err != nil {
					return reader{}, err
				}
				return reader{cur.TryNext, cur.Close}, nil
			})
		}
	}
	mutexslice := func(stalled bool) func(*testing.B) {
		return func(b *testing.B) {
			sp := stallPoint(stalled)
			l := bench.NewMutexSliceLog(sc.Capacity, sp)
			round(b, sp, func(v uint64) bool { return l.TryAppend(0, v) }, func() (reader, error) {
				r := l.NewReader()
				return reader{r.TryNext, r.Close}, nil
			})
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("wflog/shards=%d", shards), wflog(shards, true))
	}
	b.Run("mutexslice", mutexslice(true))
	b.Run("nostall/wflog/shards=8", wflog(8, false))
	b.Run("nostall/mutexslice", mutexslice(false))
}
