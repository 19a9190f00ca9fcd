package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wflocks"
)

// Phases of a run. Generators start in warm-up, count what they start
// while the phase is measure, and return once it is stop.
const (
	phWarm int32 = iota
	phMeasure
	phStop
)

// The holder-stall regime is the repo's: every 16th value encode sleeps
// 4 ms, armed after prefill. Value encodes happen inside critical
// sections, so the sleep lands where a preempted lock holder would sit.
const (
	stallPeriod = 16
	stallSleep  = 4 * time.Millisecond
)

type stallPoint struct {
	n     atomic.Uint64
	armed atomic.Bool
}

func (s *stallPoint) hit() {
	if s.n.Add(1)%stallPeriod == 0 && s.armed.Load() {
		time.Sleep(stallSleep)
	}
}

// codec is the single-word uint64 value codec that draws the stall
// point on every encode.
func (s *stallPoint) codec() wflocks.Codec[uint64] {
	return wflocks.CodecFunc(1,
		func(v uint64, dst []uint64) { s.hit(); dst[0] = v },
		func(src []uint64) uint64 { return src[0] })
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s from a precomputed distribution, and maps each rank
// through a seeded permutation so the hot keys differ from seed to seed.
type zipf struct {
	cdf  []float64
	perm []uint32
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]uint32, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	for i, p := range rng.Perm(n) {
		z.perm[i] = uint32(p)
	}
	return z
}

func (z *zipf) sample(rng *rand.Rand) int {
	return int(z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())%len(z.perm)])
}

// newRand is the generator of one stream of one epoch's inputs.
func newRand(c setupCfg, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, 0x9e3779b97f4a7c15+uint64(c.epoch)<<16+uint64(stream)))
}

// drawDistinct samples l distinct keys in [0, n). The slice is fresh on
// every call: helpers may re-execute a transaction body after Atomic
// has returned, so a key buffer must never be reused.
func drawDistinct(rng *rand.Rand, l, n int) []uint64 {
	keys := make([]uint64, 0, l)
	for len(keys) < l {
		k := rng.Uint64N(uint64(n))
		dup := false
		for _, have := range keys {
			dup = dup || have == k
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	return keys
}

// gen is one generator goroutine's private state: its counters for the
// measured window, its latency samples and its span buffer. Nothing in
// it is shared while the goroutine runs.
type gen struct {
	id    int
	phase *atomic.Int32
	base  time.Time

	ops, failed uint64 // started in the measure phase
	warmOps     uint64 // started before it
	lat         *hist  // sampled op latencies, measure phase only
	late        *hist  // open loop only: how late each send was
	tr          tracer
}

func (g *gen) clock() int64 { return int64(time.Since(g.base)) }

// latEvery is the stride at which structs-raw times a round for the
// latency histogram and, in a traced run, records its spans; the other
// workloads time every op.
const latEvery = 16

// closedLoop runs op until the phase is stop. It times every
// sampleEvery-th round for the latency histogram, and in a traced run
// records spans on every tr.every-th round. op returns the number of
// wrong answers it saw.
func (g *gen) closedLoop(sampleEvery uint64, op func(round uint64) uint64) {
	for round := uint64(0); ; round++ {
		ph := g.phase.Load()
		if ph == phStop {
			return
		}
		timed := round%sampleEvery == 0
		g.tr.on = g.tr.every > 0 && round%g.tr.every == 0
		var t0 int64
		if timed || g.tr.on {
			t0 = g.clock()
		}
		bad := op(round)
		if timed || g.tr.on {
			t1 := g.clock()
			g.tr.add(kRound, round, t0, t1)
			if timed && ph == phMeasure {
				g.lat.record(t1 - t0)
			}
		}
		if ph == phMeasure {
			g.ops++
			g.failed += bad
		} else {
			g.warmOps++
		}
	}
}

// instance is one set-up workload: the generator bodies, the managers
// whose counters the core layer reads, and the checks to run once every
// generator has returned.
type instance struct {
	gens   []func(g *gen)
	mgrs   []*wflocks.Manager
	arm    func()                                // arms the stall point after prefill; nil in the raw regime
	tables func() (size, sumProbe, maxProbe int) // open-addressed regions of the workload's Map/Cache
	counts func() map[string]uint64              // structure counters diffed across the window
	audit  func() []string                       // violations found after the run
	close  func() error                          // stops what set-up started
}

// window is what one measured window yields.
type window struct {
	t0, t1        int64 // window bounds on the generators' clock
	ops, failed   uint64
	opsSinceSetup uint64 // warm-up included: what the live heap at the end was retained for
	lat, late     *hist
	cpu           time.Duration
	allocBytes    uint64
	heapAlloc     uint64 // after a forced GC once the workload is stopped, before it is dropped
	gcCycles      uint32
	gcPause       time.Duration
	core          wflocks.StatsSnapshot
	obs           []wflocks.ObsSnapshot // per manager, window delta
	counts        map[string]uint64
	gens          []*gen
	violations    []string
	tableSize     int
	tableProbes   int
	tableMaxDisp  int
	calib         float64 // seconds the calibration loop took around this epoch; set by epoch
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sumStats(mgrs []*wflocks.Manager) wflocks.StatsSnapshot {
	var s wflocks.StatsSnapshot
	for _, m := range mgrs {
		ms := m.Stats()
		s.Attempts += ms.Attempts
		s.Wins += ms.Wins
		s.Helps += ms.Helps
		s.FastPath += ms.FastPath
	}
	return s
}

func observeAll(mgrs []*wflocks.Manager) []wflocks.ObsSnapshot {
	out := make([]wflocks.ObsSnapshot, len(mgrs))
	for i, m := range mgrs {
		out[i] = m.Observe()
	}
	return out
}

// runOpts shapes one run. traceEvery is the stride of traced rounds; 0
// leaves tracing off.
type runOpts struct {
	warm, measure time.Duration
	traceEvery    uint64
}

// run drives inst through warm-up and one measured window, then stops
// the generators, audits the outputs and closes the instance.
func run(inst *instance, o runOpts) (*window, error) {
	var phase atomic.Int32
	base := time.Now()
	gens := make([]*gen, len(inst.gens))
	for i := range gens {
		gens[i] = &gen{id: i, phase: &phase, base: base, lat: newHist(), late: newHist()}
		if o.traceEvery > 0 {
			gens[i].tr = tracer{every: o.traceEvery, base: base, spans: make([]span, 0, spanBudget/len(gens))}
		}
	}
	if inst.arm != nil {
		inst.arm()
	}
	var wg sync.WaitGroup
	for i, body := range inst.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(gens[i])
		}()
	}
	time.Sleep(o.warm)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	core0, obs0, counts0 := sumStats(inst.mgrs), observeAll(inst.mgrs), inst.counts()
	cpu0 := cpuTime()
	w := &window{gens: gens, lat: newHist(), late: newHist()}
	w.t0 = int64(time.Since(base))
	phase.Store(phMeasure)
	time.Sleep(o.measure)
	phase.Store(phStop)
	w.t1 = int64(time.Since(base))
	w.cpu = cpuTime() - cpu0
	w.core = sumStats(inst.mgrs).Sub(core0)
	for i, ob := range observeAll(inst.mgrs) {
		w.obs = append(w.obs, ob.Sub(obs0[i]))
	}
	w.counts = inst.counts()
	for k, v := range counts0 {
		w.counts[k] -= v
	}
	runtime.ReadMemStats(&ms1)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	wg.Wait()
	for _, g := range gens {
		w.ops += g.ops
		w.opsSinceSetup += g.ops + g.warmOps
		w.failed += g.failed
		w.lat.merge(g.lat)
		w.late.merge(g.late)
	}
	w.violations = inst.audit()
	w.tableSize, w.tableProbes, w.tableMaxDisp = inst.tables()
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("closing the workload: %w", err)
	}
	// The one collection that marks what the instance retained: with the
	// generators and the server stopped it has both CPUs, and the
	// instance is still referenced, so what survives is the workload's
	// live heap.
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	w.heapAlloc = ms1.HeapAlloc
	runtime.KeepAlive(inst)
	return w, nil
}

func (w *window) rate() float64 { return float64(w.ops) / time.Duration(w.t1-w.t0).Seconds() }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
