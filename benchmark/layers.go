package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wflocks"
	"wflocks/internal/serve"
)

// A traced run prints two kinds of layer numbers. Window metrics say
// how the lock core behaved under the selected workload (counters and
// latency histograms diffed across its traced window). The layer table
// is the same for every workload: short, fully traced slices of the
// workloads that exercise each structure, and single-goroutine replays
// of each stage, so that every traced run prices every layer and a
// change to one layer shows in its own row whichever workload was asked
// for.

// windowLayers derives the window metrics of one traced epoch.
func windowLayers(out samples, w *window, st *spanStats) error {
	ops := float64(w.ops)
	out.set("core.attempts_per_op", float64(w.core.Attempts)/ops, w.ops)
	out.set("core.win_rate", w.core.SuccessRate(), w.core.Attempts)
	out.set("core.help_rate", w.core.HelpRate(), w.core.Attempts)
	out.set("core.fastpath_rate", w.core.FastPathRate(), w.core.Attempts)

	// A workload with several managers reports shares and means over all
	// of them, and acquisition quantiles for the busiest one: histograms
	// of different managers cannot be merged from outside.
	var attemptSteps, delaySteps, helpNanos, delayN uint64
	var delaySum float64
	busiest := w.obs[0]
	for _, ob := range w.obs {
		attemptSteps += ob.AttemptSteps
		delaySteps += ob.DelaySteps
		helpNanos += ob.HelpNanos
		delayN += ob.DelayIters.Count
		delaySum += ob.DelayIters.Mean * float64(ob.DelayIters.Count)
		if ob.Acquire.Count > busiest.Acquire.Count {
			busiest = ob
		}
	}
	out.set("core.delay_share", ratio(float64(delaySteps), float64(attemptSteps)), attemptSteps)
	out.set("core.delay_iters_mean", ratio(delaySum, float64(delayN)), delayN)
	out.set("core.help_us_per_op", float64(helpNanos)/1e3/ops, w.core.Helps)
	out.set("core.acquire_p50_us", obsQuantile(busiest.Acquire, 0.50)/1e3, busiest.Acquire.Count)
	out.set("core.acquire_p99_us", obsQuantile(busiest.Acquire, 0.99)/1e3, busiest.Acquire.Count)

	out.set("arena.gc_cycles", float64(w.gcCycles), uint64(w.gcCycles))
	out.set("arena.gc_pause_ms", w.gcPause.Seconds()*1e3, uint64(w.gcCycles))
	out.set("table.probe_mean", ratio(float64(w.tableProbes), float64(w.tableSize)), uint64(w.tableSize))
	out.set("table.max_probe", float64(w.tableMaxDisp), uint64(w.tableSize))
	out.set("gen.self_share", st.selfShare(), st.dur[kRound].n)
	return out.quantile("lat_p50_us", w.lat, 0.50, 1e3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsQuantile reads a quantile from one of the manager's histograms and
// interpolates inside its bucket. HistStats.Quantile is a step function
// of q; bisecting for the interval of q that maps to the same value,
// and taking the next value up, places q between the two.
func obsQuantile(h wflocks.HistStats, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	v := h.Quantile(q)
	lo, hi := 0.0, q // lowest q' with Quantile(q') == v
	for i := 0; i < 30; i++ {
		if mid := (lo + hi) / 2; h.Quantile(mid) == v {
			hi = mid
		} else {
			lo = mid
		}
	}
	from := hi
	lo, hi = q, 1.0 // highest q' with Quantile(q') == v
	for i := 0; i < 30; i++ {
		if mid := (lo + hi) / 2; h.Quantile(mid) == v {
			lo = mid
		} else {
			hi = mid
		}
	}
	to, next := lo, h.Quantile(hi)
	if to <= from || next <= v {
		return float64(v)
	}
	return float64(v) + float64(next-v)*(q-from)/(to-from)
}

// quantile sets name to h's q-quantile, in units of perUnit nanoseconds.
func (out samples) quantile(name string, h *hist, q, perUnit float64) error {
	v, used, err := h.quantile(q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s := sample{v: v / perUnit, n: h.n}
	if used != q {
		s.note = fmt.Sprintf("reported at p%.4g", used*100)
	}
	out[name] = s
	return nil
}

// layerTable runs the fixed sections and adds their metrics to out.
func layerTable(out samples, c runCfg) error {
	sections := []func(samples, runCfg) error{microSection, structsSection, txnSection, serveSection, pacedSection}
	for _, section := range sections {
		runtime.GC() // twice, as between epochs: each section starts from a collected heap
		runtime.GC()
		if err := section(out, c); err != nil {
			return err
		}
	}
	return nil
}

// slice runs a short, fully traced window of a workload with the
// manager's metrics off: the spans are the measurement.
func slice(setup func(setupCfg) (*instance, error), c runCfg, scale int) (*window, *spanStats, error) {
	inst, err := setup(setupCfg{seed: c.seed, epoch: epochs, W: c.W, latEvery: c.latEvery}) // inputs no epoch has used
	if err != nil {
		return nil, nil, err
	}
	w, err := run(inst, runOpts{warm: c.slice / 2, measure: time.Duration(scale) * c.slice, traceEvery: 1})
	if err != nil {
		return nil, nil, err
	}
	if len(w.violations) > 0 || w.failed > 0 {
		return nil, nil, fmt.Errorf("layer table: %d wrong answers, violations %q", w.failed, w.violations)
	}
	return w, summarise(w), nil
}

func structsSection(out samples, c runCfg) error {
	w, st, err := slice(setupStructs, c, 1)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name    string
		k       kind
		perUnit float64
	}{
		{"map.get_ns_p50", kMapGet, 1}, {"map.update_us_p50", kMapUpdate, 1e3},
		{"txn.atomic_l2_us_p50", kTxnL2, 1e3},
		{"cache.get_us_p50", kCacheGet, 1e3}, {"cache.put_us_p50", kCachePut, 1e3},
		{"pool.enq_us_p50", kPoolEnq, 1e3}, {"pool.deq_us_p50", kPoolDeq, 1e3},
		{"log.append_us_p50", kLogAppend, 1e3}, {"log.next_us_p50", kLogNext, 1e3},
	} {
		if err := out.quantile(m.name, st.dur[m.k], 0.50, m.perUnit); err != nil {
			return err
		}
	}
	rounds := st.dur[kRound].n
	for _, layer := range []string{"map", "txn", "cache", "pool", "log"} {
		out.set(layer+".busy_share", st.busyShare(layer), rounds)
	}
	kops := float64(w.ops) / 1e3
	gets := w.counts["cache.hits"] + w.counts["cache.misses"]
	out.set("cache.hit_rate", ratio(float64(w.counts["cache.hits"]), float64(gets)), gets)
	out.set("cache.evictions_per_kop", float64(w.counts["cache.evictions"])/kops, w.ops)
	out.set("pool.steals_per_kop", float64(w.counts["pool.steals"])/kops, w.ops)
	out.set("pool.empty_polls_per_op", float64(w.counts["pool.empty"])/float64(w.ops), w.ops)
	out.set("log.full_rejects_per_kop", float64(w.counts["log.full"])/kops, w.ops)
	return nil
}

func txnSection(out samples, c runCfg) error {
	// Twice the slice: 8 stalled goroutines complete about a thousand
	// transactions a second, and a p99 needs a thousand samples.
	w, st, err := slice(setupTxnStall, c, 2)
	if err != nil {
		return err
	}
	if err := out.quantile("txn.atomic_l4_us_p50", st.dur[kTxnL4], 0.50, 1e3); err != nil {
		return err
	}
	if err := out.quantile("txn.atomic_l4_us_p99", st.dur[kTxnL4], 0.99, 1e3); err != nil {
		return err
	}
	out.set("txn.attempts_per_commit", float64(w.core.Attempts)/float64(w.ops), w.ops)
	return nil
}

func pacedSection(out samples, c runCfg) error {
	w, _, err := slice(setupServePaced, c, 2)
	if err != nil {
		return err
	}
	return pacedLayers(out, w)
}

// pacedLayers reads the open-loop numbers of a serve-paced window.
func pacedLayers(out samples, w *window) error {
	for _, m := range []struct {
		name string
		h    *hist
		q    float64
	}{
		{"serve.open_lat_p50_us", w.lat, 0.50}, {"serve.open_lat_p99_us", w.lat, 0.99},
		{"gen.late_p50_us", w.late, 0.50}, {"gen.late_p99_us", w.late, 0.99},
	} {
		if err := out.quantile(m.name, m.h, m.q, 1e3); err != nil {
			return err
		}
	}
	out.set("serve.within_1ms_share", w.lat.shareBelow(int64(time.Millisecond)), w.lat.n)
	out.set("serve.attempts_per_req", float64(w.core.Attempts)/float64(w.ops), w.ops)
	return nil
}

const (
	microIters  = 200_000
	microBlocks = 8 // the cell probes alternate their two bodies in blocks, so drift hits both alike
	cellPairs   = 16
	wideWords   = 4
)

// microSection times the lock core and the idempotence layer from
// outside: Manager.Do on fresh managers with small bodies.
func microSection(out samples, c runCfg) error {
	procs := c.W + 2
	do := func(name string, nLocks, goroutines int, alloc bool) error {
		m, err := newManager(procs, 4, 64, false)
		if err != nil {
			return err
		}
		locks := make([]*wflocks.Lock, nLocks)
		for i := range locks {
			locks[i] = m.NewLock()
		}
		a, b := wflocks.NewCell[uint64](0), wflocks.NewCell[uint64](0)
		body := func(tx *wflocks.Tx) {
			wflocks.Put(tx, a, wflocks.Get(tx, a)+1)
			wflocks.Put(tx, b, wflocks.Get(tx, b)+1)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < microIters/goroutines; i++ {
					if err := m.Do(locks, 4, body); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		n := uint64(microIters / goroutines * goroutines)
		if got := wflocks.Load(m, a); got != n {
			return fmt.Errorf("%s: cell counts %d after %d sections", name, got, n)
		}
		// Per call, as its caller sees it: wall time times goroutines over calls.
		out.set(name, float64(elapsed.Nanoseconds())*float64(goroutines)/float64(n), n)
		if alloc {
			out.set("arena.bytes_per_attempt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(m.Stats().Attempts), n)
		}
		return nil
	}
	if err := do("core.do_l1_ns", 1, 1, true); err != nil {
		return err
	}
	if err := do("core.do_l4_ns", 4, 1, false); err != nil {
		return err
	}
	if err := do("core.do_l1_shared_ns", 1, c.W, false); err != nil {
		return err
	}
	scalar := wflocks.Codec[uint64](wflocks.IntegerCodec[uint64]())
	if err := cellProbe(out, "idem.cell_rw_ns", procs, scalar, func(v uint64) uint64 { return v + 1 }); err != nil {
		return err
	}
	wide := wflocks.CodecFunc(wideWords,
		func(v [wideWords]uint64, dst []uint64) { copy(dst, v[:]) },
		func(src []uint64) (v [wideWords]uint64) { copy(v[:], src); return v })
	return cellProbe(out, "idem.wide_cell_rw_ns", procs, wide,
		func(v [wideWords]uint64) [wideWords]uint64 { v[0]++; return v })
}

// cellProbe prices one Get+Put pair on a cell of the given codec: the
// time of a section with cellPairs pairs minus that of an empty one,
// over cellPairs.
func cellProbe[T any](out samples, name string, procs int, codec wflocks.Codec[T], next func(T) T) error {
	m, err := newManager(procs, 1, 2*cellPairs*codec.Words()+16, false)
	if err != nil {
		return err
	}
	locks := []*wflocks.Lock{m.NewLock()}
	var zero T
	cell := wflocks.NewCellOf(codec, zero)
	budget := 2 * cellPairs * codec.Words()
	bodies := [2]func(*wflocks.Tx){
		func(*wflocks.Tx) {},
		func(tx *wflocks.Tx) {
			for i := 0; i < cellPairs; i++ {
				wflocks.Put(tx, cell, next(wflocks.Get(tx, cell)))
			}
		},
	}
	var spent [2]time.Duration
	const iters = microIters / 4
	for block := 0; block < microBlocks; block++ {
		for which, body := range bodies {
			start := time.Now()
			for i := 0; i < iters/microBlocks; i++ {
				if err := m.Do(locks, budget, body); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			spent[which] += time.Since(start)
		}
	}
	n := uint64(iters / microBlocks * microBlocks)
	out.set(name, float64((spent[1]-spent[0]).Nanoseconds())/float64(n)/cellPairs, n)
	return nil
}

const (
	replayReqs = 20_000
	idleReqs   = 4_000
)

// serveSection replays one generated request stream, single goroutine,
// through each public stage of the serve pipeline alone, then measures
// the round trip of one connection with one request in flight on an
// otherwise idle server. What the round trip costs beyond the stages is
// the pipeline's own time: pipe, wake-ups, ordering.
func serveSection(out samples, c runCfg) error {
	e, err := newServeEnv(setupCfg{seed: c.seed, epoch: epochs, W: c.W}, 1, 0.05, nil)
	if err != nil {
		return err
	}
	stream := e.streams[0][:replayReqs]
	cl := e.clients[0]

	var wire bytes.Buffer
	for _, r := range stream {
		cl.encode(e, r)
		wire.Write(cl.buf)
	}
	br := bufio.NewReader(&wire)
	start := time.Now()
	for range stream {
		if _, err := serve.ReadCommand(br); err != nil {
			return fmt.Errorf("serve.parse: %w", err)
		}
	}
	parse := float64(time.Since(start).Nanoseconds()) / replayReqs
	out.set("serve.parse_ns_per_cmd", parse, replayReqs)

	be := e.srv.Backend()
	gets, sets := newHist(), newHist()
	for _, r := range stream {
		t := time.Now()
		if r.set {
			if err := be.Set(e.keys[r.key], e.vals[r.key], 0); err != nil {
				return fmt.Errorf("serve.backend_set: %w", err)
			}
			sets.record(int64(time.Since(t)))
		} else {
			v, ok := be.Get(e.keys[r.key])
			gets.record(int64(time.Since(t)))
			if !ok || v != e.vals[r.key] {
				return fmt.Errorf("serve.backend_get: key %d: %q, %v", r.key, v, ok)
			}
		}
	}
	if err := out.quantile("serve.backend_get_us_p50", gets, 0.50, 1e3); err != nil {
		return err
	}
	if err := out.quantile("serve.backend_set_us_p50", sets, 0.50, 1e3); err != nil {
		return err
	}

	hop, err := poolHop(stream, c.W)
	if err != nil {
		return err
	}
	if err := out.quantile("serve.pool_hop_us_p50", hop, 0.50, 1e3); err != nil {
		return err
	}

	var buf []byte
	start = time.Now()
	for _, r := range stream {
		buf = serve.AppendBulk(buf[:0], e.vals[r.key])
	}
	encode := float64(time.Since(start).Nanoseconds()) / replayReqs
	out.set("serve.encode_ns_per_reply", encode, replayReqs)

	rtt := newHist()
	for i, r := range stream[:idleReqs] {
		r.set = false
		cl.encode(e, r)
		t := time.Now()
		err := cl.write()
		var rep serve.Reply
		if err == nil {
			rep, err = serve.ReadReply(cl.br)
		}
		rtt.record(int64(time.Since(t)))
		if !replyOK(false, e.vals[r.key], rep, err) {
			return fmt.Errorf("serve.rtt_idle: request %d: %+v, %v", i, rep, err)
		}
	}
	if err := out.quantile("serve.rtt_idle_us_p50", rtt, 0.50, 1e3); err != nil {
		return err
	}
	stages := parse/1e3 + out["serve.backend_get_us_p50"].v + out["serve.pool_hop_us_p50"].v + encode/1e3
	out.set("serve.handoff_us", out["serve.rtt_idle_us_p50"].v-stages, rtt.n)

	if v := e.audit(); len(v) > 0 {
		return fmt.Errorf("serve replay: %q", v)
	}
	return e.close()
}

// poolHop times EnqueueKeyed followed by Dequeue on a WorkPool of the
// server's shape: 8 shards, 4096 slots, one slab index per element.
func poolHop(stream []req, W int) (*hist, error) {
	m, err := newManager(W+2, 2, wflocks.WorkPoolCriticalSteps(1, 1), false)
	if err != nil {
		return nil, err
	}
	pool, err := wflocks.NewWorkPool[uint64](m, wflocks.WithPoolShards(8),
		wflocks.WithPoolCapacity(4096), wflocks.WithPoolBatch(1))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	h := newHist()
	for i, r := range stream {
		t := time.Now()
		if err := pool.EnqueueKeyed(ctx, uint64(r.key)*0x9e3779b97f4a7c15, uint64(i)); err != nil {
			return nil, fmt.Errorf("serve.pool_hop: %w", err)
		}
		got, err := pool.Dequeue(ctx)
		h.record(int64(time.Since(t)))
		if err != nil || got != uint64(i) {
			return nil, fmt.Errorf("serve.pool_hop: dequeued %d, %v, want %d", got, err, i)
		}
	}
	return h, nil
}
