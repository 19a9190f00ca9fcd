package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wflocks"
	"wflocks/internal/workload"
)

// The scenario driver. Every workload table makes the paper's
// comparison — wait-free structures whose stalled holders are helped,
// against blocking baselines that serialize the stall — so it is
// written once: a family is a value listing its implementations in
// table order, and sweep runs each in each regime the same way.

// family is one scenario's comparison table.
type family struct {
	title  string
	header []string
	notes  []string
	// stall adds the holder-stall regime after the raw one, and the
	// "stall" column after the label cells.
	stall bool
	// obs ends every row in obsHeader's columns.
	obs   bool
	impls []impl
}

// impl is one implementation in a family's sweep: its label cells
// (name, then the swept parameter) and its constructor. build sizes it
// for the scenario, prefills it and routes its value writes through sp
// (nil in the raw regime); sweep arms sp only after build returns, so
// setup draws never sleep.
type impl struct {
	cells []string
	build func(sp *StallPoint) (*instance, error)
}

// instance is one built implementation, ready for its measured run.
type instance struct {
	// mgrs are the wait-free managers behind it; none on a baseline.
	mgrs []*wflocks.Manager
	// run is the measured phase. The role-based loops audit delivery as
	// they consume, so a conservation or order violation is run's error.
	run func() error
	// audit, when non-nil, checks a post-run invariant; a violation
	// fails the sweep whichever implementation broke it.
	audit func() error
	// cols renders the family's measured cells, which sit between the
	// label cells and the obs columns.
	cols func(r measured) []string
	// close, when non-nil, releases resources.
	close func() error
}

// measured is what sweep observed of one run: wall time and the lock
// layer's work over exactly the run — setup and prefill excluded.
type measured struct {
	elapsed time.Duration
	locks   lockWork
}

// perSec renders n units of work as a rate over the run.
func (r measured) perSec(n int) string {
	return fmt.Sprintf("%.0f", float64(n)/r.elapsed.Seconds())
}

// attemptCols renders the success and attempts-per-unit cells over n
// units of work; baselines make no attempts and get placeholders.
func (r measured) attemptCols(n uint64) (success, attemptsPer string) {
	if r.locks.Attempts == 0 || n == 0 {
		return "-", "-"
	}
	return fmt.Sprintf("%.3f", r.locks.SuccessRate()),
		fmt.Sprintf("%.2f", float64(r.locks.Attempts)/float64(n))
}

// lockWork is lock-layer work summed over an instance's managers (an
// attempt on k locks counts once, as in Manager.Stats).
type lockWork struct {
	wflocks.StatsSnapshot
	attemptSteps, delaySteps uint64
	metered                  bool
}

// sampleLocks sums the managers' cumulative counters.
func sampleLocks(mgrs []*wflocks.Manager) lockWork {
	var w lockWork
	for _, m := range mgrs {
		s := m.Stats()
		w.Attempts += s.Attempts
		w.Wins += s.Wins
		w.Helps += s.Helps
		w.FastPath += s.FastPath
		if o := m.Observe(); o.Enabled {
			w.metered = true
			w.attemptSteps += o.AttemptSteps
			w.delaySteps += o.DelaySteps
		}
	}
	return w
}

// since returns the work done after base was sampled.
func (w lockWork) since(base lockWork) lockWork {
	w.StatsSnapshot = w.StatsSnapshot.Sub(base.StatsSnapshot)
	w.attemptSteps -= base.attemptSteps
	w.delaySteps -= base.delaySteps
	return w
}

// obsHeader is the shared tail of the structure tables' headers: the
// helping-machinery columns obsCols fills.
var obsHeader = []string{"help/op", "fastpath", "delayshare"}

// obsCols renders obsHeader's cells for one run: helps and fast-path
// skips per attempt and, when the managers record metrics, the share of
// attempt steps burned in the delay schedule. Baselines have no lock
// layer to report.
func obsCols(w lockWork) []string {
	if w.Attempts == 0 {
		return []string{"-", "-", "-"}
	}
	delayShare := "-"
	if w.metered {
		share := 0.0
		if w.attemptSteps > 0 {
			share = float64(w.delaySteps) / float64(w.attemptSteps)
		}
		delayShare = fmt.Sprintf("%.3f", share)
	}
	return []string{
		fmt.Sprintf("%.3f", w.HelpRate()),
		fmt.Sprintf("%.3f", w.FastPathRate()),
		delayShare,
	}
}

// sweep tabulates one row per implementation per regime: raw first,
// then (for stall families) the holder-stall regime.
func (f *family) sweep() (*Table, error) {
	t := &Table{Title: f.title, Header: f.header, Notes: f.notes}
	regimes := []bool{false}
	if f.stall {
		regimes = append(regimes, true)
	}
	for _, stalled := range regimes {
		for _, im := range f.impls {
			// Each row gets its own stall point so the regime's rows do
			// not share a stall schedule.
			var sp *StallPoint
			label := "none"
			if stalled {
				sp = NewStallPoint(StallPeriod, StallDur)
				label = fmt.Sprintf("%v/%d", StallDur, StallPeriod)
			}
			cells, err := f.measure(im, sp)
			if err != nil {
				return nil, fmt.Errorf("%s stall=%s: %w", im.cells[0], label, err)
			}
			row := append([]string(nil), im.cells...)
			if f.stall {
				row = append(row, label)
			}
			t.Rows = append(t.Rows, append(row, cells...))
		}
	}
	return t, nil
}

// measure builds one implementation, arms the stall schedule once
// setup is over, times the run, audits it and renders its cells.
func (f *family) measure(im impl, sp *StallPoint) (cells []string, err error) {
	in, err := im.build(sp)
	if err != nil {
		return nil, err
	}
	if in.close != nil {
		defer func() {
			if cerr := in.close(); err == nil {
				err = cerr
			}
		}()
	}
	sp.Arm()
	base := sampleLocks(in.mgrs)
	start := time.Now()
	if err := in.run(); err != nil {
		return nil, err
	}
	r := measured{elapsed: time.Since(start)}
	r.locks = sampleLocks(in.mgrs).since(base)
	if in.audit != nil {
		if err := in.audit(); err != nil {
			return nil, err
		}
	}
	cells = in.cols(r)
	if f.obs {
		cells = append(cells, obsCols(r.locks)...)
	}
	return cells, nil
}

// add appends an implementation, labelled by cells, to the sweep.
func (f *family) add(build func(sp *StallPoint) (*instance, error), cells ...string) {
	f.impls = append(f.impls, impl{cells: cells, build: build})
}

// workersAtLeast picks a driver goroutine count: the host's
// parallelism, floored at n so there is contention to measure (and
// runnable helpers for stalled winners) on small machines.
func workersAtLeast(n int) int { return max(runtime.GOMAXPROCS(0), n) }

// workerSeed spreads goroutine index w over the op streams' seed space.
func workerSeed(w int) uint64 { return uint64(w)*0x9e3779b97f4a7c15 + 1 }

// runWorkers is the symmetric fan-out: n goroutines each apply their
// own operation (worker(w) builds goroutine w's, over its private op
// stream) opsPer times; it returns the first error any of them hit.
func runWorkers(n, opsPer int, worker func(w int) func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := worker(w)
			for i := 0; i < opsPer && errs[w] == nil; i++ {
				errs[w] = op(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunScenario runs the named registry scenario (workload.Scenarios;
// `wfbench -list`) and returns its table. variants restricts the delay
// regimes the map, cache and txn families sweep; the queue, log and
// service tiers run the adaptive default only.
func RunScenario(name string, scale Scale, variants []Variant) (*Table, error) {
	f, err := scenarioFamily(name, scale, variants)
	if err != nil {
		return nil, err
	}
	return f.sweep()
}

// scenarioFamily resolves a registry name to its family.
func scenarioFamily(name string, scale Scale, variants []Variant) (*family, error) {
	if sc := workload.LookupMapScenario(name); sc != nil {
		return mapFamily(sc, scale, variants)
	}
	if sc := workload.LookupCacheScenario(name); sc != nil {
		return cacheFamily(sc, scale, variants)
	}
	if sc := workload.LookupTxnScenario(name); sc != nil {
		return txnFamily(sc, scale, variants)
	}
	if sc := workload.LookupQueueScenario(name); sc != nil {
		return queueFamily(sc, scale)
	}
	if sc := workload.LookupLogScenario(name); sc != nil {
		return logFamily(sc, scale)
	}
	if sc := workload.LookupServiceScenario(name); sc != nil {
		return serviceFamily(sc, scale)
	}
	return nil, fmt.Errorf("bench: unknown scenario %q", name)
}

// shardSweep is the shard-count sweep of the map, cache, WorkPool and
// log tables.
var shardSweep = []int{1, 2, 4, 8}

// valueCodec is a benchmark structure's value codec: the plain integer
// codec in the raw regime, StallValueCodec over sp under stalls.
func valueCodec(sp *StallPoint) wflocks.Codec[uint64] {
	if sp == nil {
		return wflocks.IntegerCodec[uint64]()
	}
	return StallValueCodec(sp)
}

// nextPow2 rounds n up to a power of two, minimum 1.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
