// Command benchmark is the repo's one yardstick: five closed or paced
// workloads over the lock core, the structures and wfserve, each with
// its outputs audited, end-to-end metrics measured with all tracing off
// and per-layer metrics attributed from outside in a separate traced
// run. It imports only the root wflocks API and internal/serve, and owns
// its stall point, samplers, histogram and load generator, so that
// refactors of the repo's own harness cannot move the ruler.
//
//	go run . -workload structs-raw -seed 1          # both runs of one workload
//	go run .                                        # every workload
//	go run . -workload txn-stall -seed 3 -seconds 15 -trace 0   # what the driver runs
//	go run . -aa 5                                  # A/A spread of every end-to-end metric
//	go run . -list                                  # the metric registry as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs. setup builds a fresh instance from the
// seed: construction, prefill, server start and dials, everything that
// has to happen before warm-up.
type workload struct {
	name, why  string
	loop       string // closed or open, with its client count or rate
	cpuBound   bool   // its rate and latency are set by CPU speed, not by sleeps or a schedule: see calib.go
	traceEvery uint64 // stride of traced rounds in the workload's own traced window
	setup      func(setupCfg) (*instance, error)
}

type setupCfg struct {
	seed     uint64
	epoch    int // which of the run's epochs: each draws its own inputs from the seed
	W        int
	latEvery uint64 // structs-raw's latency sampling stride
	metrics  bool   // WithMetrics / Config.Metrics, the one switch a traced run flips in the program
}

var workloads = []workload{
	{"structs-raw", "raw round over all five structures: closure, result-cell, arena and fast-path cost dominate; serve idle, delays and helping under 1% of attempts",
		"closed, W goroutines", true, latEvery, setupStructs},
	{"txn-stall", "4-key Map.Atomic under holder stalls: delay schedule, helping and idempotent re-execution do the work, structure bodies almost none",
		"closed, 8 goroutines", false, 1, setupTxnStall},
	{"serve-closed", "RESP over loopback, 95/5 GET/SET, one request in flight per connection: parse, slab, WorkPool hop, hand-offs and wide-codec Cache bodies, saturated",
		"closed, W connections x 1 in flight", true, 4, setupServeClosed},
	{"serve-stall", "same service path, 80/20 GET/SET with stalled writers holding shard locks and 4 requests in flight per connection: helping and ordering carry it, raw constants do not",
		"closed, W connections x 4 in flight", false, 4, setupServeStall},
	{"serve-paced", "same server at 2000 req/s open loop, mostly idle: the cost of spin-polling dispatch workers per request, which saturation hides",
		"open, 2000 req/s on W connections", false, 1, setupServePaced},
}

// runCfg is what one run is asked to do.
type runCfg struct {
	seed     uint64
	W        int
	seconds  time.Duration // measured in all, split evenly over the epochs
	warm     time.Duration // each epoch's warm-up, excluded from its window
	slice    time.Duration // base length of a layer-table slice
	latEvery uint64        // structs-raw's latency sampling stride: latEvery, or 1 in the race-detector smoke test
	calib    *calibrator   // see calib.go
	epochLog io.Writer     // where -v prints each epoch's values; nil for nowhere
}

// A run is split into epochs, each a fresh instance of the workload run
// through warm-up and one window, and reports every metric's median over
// them. The program keeps nearly everything it allocates reachable for
// as long as its manager lives (tens of kilobytes per op), so one long
// window would grow the heap by a gigabyte every two seconds and slow
// down as it goes; short epochs bound the heap. They run on pages the
// process has already touched (see prefault), because first-touch page
// faults in this sandbox cost more than the program does and vary by a
// factor of two from run to run.
const epochs = 10

func (c runCfg) window() time.Duration { return c.seconds / epochs }

// result is one run's outcome: the line the driver reads, and the
// samples behind it for the table a person reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	samples    samples
	violations []string
	speed      float64 // the untraced run's speed index; what it scaled shows its raw value in the table
}

// count adds a measured epoch's ops to the result.
func (r *result) count(w *window) {
	r.Attempted += w.ops
	r.Failed += w.failed
}

// finish fills in the metrics of defs from s and decides correctness.
func (r *result) finish(defs []metricDef, s samples) error {
	r.samples, r.Metrics = s, map[string]value{}
	r.Correct = r.Failed == 0 && len(r.violations) == 0 && r.Attempted > 0
	for _, d := range defs {
		m, ok := s[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{Value: m.v, Unit: d.Unit}
	}
	return nil
}

// setupsPerEpoch set-ups are built and timed in every epoch, and all but
// the last closed again: one construction takes milliseconds, too few
// to time ten of them per run and call the median steady.
const setupsPerEpoch = 3

// epoch sets the workload up afresh and runs it once, on inputs drawn
// from the run's seed and the epoch's number, so that a run averages
// over ten sets of inputs and not one. It returns the window and the
// set-up times: construction, prefill, server start and dials,
// everything before warm-up. Audit violations go to r: every output has
// to be right.
func epoch(wl workload, c runCfg, r *result, e int, metrics bool, traceEvery uint64) (*window, []float64, error) {
	// Drops the previous epoch's instance and keeps its pages mapped. It
	// takes the collection at the end of run and this one: the program's
	// pooled process handles hold the old manager, gigabytes of it,
	// through sync.Pool's victim cache, which only a second collection
	// empties. With one, every other epoch ran at a quarter of the rate,
	// marking the old heap along with its own.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // what the benchmark itself holds: not the workload's to answer for
	before := c.calib.measure()
	var inst *instance
	var setupS []float64
	for i := 0; i < setupsPerEpoch; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: closing a set-up: %w", wl.name, err)
			}
		}
		start := time.Now()
		var err error
		inst, err = wl.setup(setupCfg{seed: c.seed, epoch: e, W: c.W, latEvery: c.latEvery, metrics: metrics})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	w, err := run(inst, runOpts{warm: c.warm, measure: c.window(), traceEvery: traceEvery})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if w.ops == 0 {
		return nil, nil, fmt.Errorf("%s: no op completed in %v", wl.name, c.window())
	}
	r.violations = append(r.violations, w.violations...)
	w.heapAlloc -= min(w.heapAlloc, ms.HeapAlloc)
	w.calib = min(before, c.calib.measure()).Seconds()
	return w, setupS, nil
}

// prefaultBytes covers the heap an epoch grows: about 2 GB on
// structs-raw, the largest, at the rates of this sandbox.
const prefaultBytes = 4 << 30

// prefault touches prefaultBytes of fresh heap and frees them again, so
// that the epochs allocate from pages this process has already faulted
// in. An epoch that outgrows them faults the rest in itself and is the
// slow one the median drops.
func prefault() {
	ballast := make([]byte, prefaultBytes)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	runtime.KeepAlive(ballast)
}

// medians reduces the epochs' samples to one per metric: the median
// value, over the summed observations.
func medians(per []samples) samples {
	out := samples{}
	for name := range per[0] {
		var vs []float64
		var n uint64
		var note string
		for _, s := range per {
			vs = append(vs, s[name].v)
			n += s[name].n
			if s[name].note != "" {
				note = s[name].note
			}
		}
		out[name] = sample{v: median(vs), n: n, note: note}
	}
	return out
}

// untraced is the run the end-to-end metrics come from: all tracing off.
func untraced(wl workload, c runCfg) (*result, error) {
	r := &result{}
	var per []samples
	var setups, calibs []float64
	for e := 0; e < epochs; e++ {
		w, setupS, err := epoch(wl, c, r, e, false, 0)
		if err != nil {
			return nil, err
		}
		r.count(w)
		setups = append(setups, setupS...)
		calibs = append(calibs, w.calib)
		s := samples{}
		s.set("ops_per_s", w.rate(), w.ops)
		if err := s.quantile("lat_p99_us", w.lat, 0.99, 1e3); err != nil {
			return nil, err
		}
		s.set("alloc_bytes_per_op", float64(w.allocBytes)/float64(w.ops), w.ops)
		s.set("retained_bytes_per_op", float64(w.heapAlloc)/float64(w.opsSinceSetup), w.opsSinceSetup)
		per = append(per, s)
		if c.epochLog != nil {
			fmt.Fprintf(c.epochLog, "%s epoch %d:", wl.name, e)
			for _, d := range endToEnd[1:] { // setup_s is not an epoch's metric
				fmt.Fprintf(c.epochLog, " %s=%.5g", d.Name, s[d.Name].v)
			}
			fmt.Fprintf(c.epochLog, " gc_cycles=%d calib_ms=%.3f\n", w.gcCycles, w.calib*1e3)
		}
	}
	s := medians(per)
	s.set("setup_s", median(setups), uint64(len(setups)))
	r.speed = speed(calibs)
	s.scale("setup_s", r.speed)
	if wl.cpuBound {
		s.scale("ops_per_s", 1/r.speed)
		s.scale("lat_p99_us", r.speed)
	}
	return r, r.finish(endToEnd, s)
}

// traced is the run the per-layer metrics come from. Epochs alternate
// between the workload's traced window (spans and the manager's metrics
// on) and an untraced one of the same length, the reference the tracing
// overhead is measured against and cpu_us_per_op is read from; then
// comes the layer table.
func traced(wl workload, c runCfg, traceOut string) (*result, error) {
	r := &result{}
	var per []samples
	var rates, refs, cpus, calibs []float64
	var refOps uint64
	for e := 0; e < epochs; e++ {
		if e%2 == 0 {
			w, _, err := epoch(wl, c, r, e, false, 0)
			if err != nil {
				return nil, err
			}
			refs = append(refs, w.rate())
			cpus = append(cpus, float64(w.cpu.Microseconds())/float64(w.ops))
			refOps += w.ops
			calibs = append(calibs, w.calib)
			continue
		}
		w, _, err := epoch(wl, c, r, e, true, wl.traceEvery)
		if err != nil {
			return nil, err
		}
		r.count(w)
		calibs = append(calibs, w.calib)
		st := summarise(w)
		if st.dropped > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d spans dropped: the window outran the span buffers\n", wl.name, st.dropped)
		}
		if traceOut != "" && e == epochs-1 {
			if err := writeChromeTrace(traceOut, w); err != nil {
				return nil, fmt.Errorf("writing the trace: %w", err)
			}
		}
		s := samples{}
		if err := windowLayers(s, w, st); err != nil {
			return nil, err
		}
		per = append(per, s)
		rates = append(rates, w.rate())
	}
	s := medians(per)
	s.set("obs.trace_overhead_share", 1-median(rates)/median(refs), r.Attempted)
	s.set("cpu_us_per_op", median(cpus), refOps)
	s.set("gen.speed_index", speed(calibs), uint64(len(calibs)))
	if err := layerTable(s, c); err != nil {
		return nil, err
	}
	return r, r.finish(perLayer, s)
}

// report prints one run: a table for people, then the result line.
func report(out io.Writer, wl workload, kind string, defs []metricDef, r *result) error {
	fmt.Fprintf(out, "%s  %s  (%s)\n", wl.name, kind, wl.loop)
	if r.speed != 0 {
		fmt.Fprintf(out, "  speed index %.3f: the calibration loop took %.2f ms against %v nominal\n",
			r.speed, calibNominal.Seconds()*1e3/r.speed, calibNominal)
	}
	for _, d := range defs {
		m := r.samples[d.Name]
		extra := ""
		if d.Bound > 0 {
			extra = fmt.Sprintf("  bound %.2f", d.Bound)
		}
		if d.From != "" {
			extra = "  from " + d.From
		}
		if m.note != "" {
			extra += "  " + m.note
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-6s n=%-9d%s\n", d.Name, m.v, d.Unit, m.n, extra)
	}
	for _, v := range r.violations {
		fmt.Fprintf(out, "  AUDIT: %s\n", v)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func findWorkload(name string) ([]workload, error) {
	if name == "" {
		return workloads, nil
	}
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return []workload{wl}, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func listing() any {
	type wlDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Loop string `json:"loop"`
	}
	var wls []wlDoc
	for _, wl := range workloads {
		wls = append(wls, wlDoc{wl.name, wl.why, wl.loop})
	}
	return map[string]any{"workloads": wls, "end_to_end": endToEnd, "per_layer": perLayer}
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "seconds measured in all, split over the epochs")
	trace := fs.Int("trace", -1, "0: the untraced run, 1: the traced run (default: both)")
	traceOut := fs.String("trace-out", "", "write the traced window's spans to this file as Chrome trace-event JSON")
	aa := fs.Int("aa", 0, "run the untraced set this many times and print each end-to-end metric's spread")
	list := fs.Bool("list", false, "print the workloads and metrics as JSON and exit")
	verbose := fs.Bool("v", false, "print each epoch's end-to-end values to standard error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *list {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(listing())
	}
	wls, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || *seconds > 60 || *trace < -1 || *trace > 1 || *aa < 0 {
		return fmt.Errorf("need 1 <= seconds <= 60, trace in {0,1}, aa >= 0")
	}
	W := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(W)
	c := runCfg{seed: *seed, W: W, seconds: time.Duration(*seconds * float64(time.Second)),
		warm: 150 * time.Millisecond, slice: time.Second, latEvery: latEvery, calib: newCalibrator(W)}
	if *verbose {
		c.epochLog = os.Stderr
	}
	fmt.Fprintf(out, "# wflocks benchmark: %s, W=%d of %d CPUs (%s), seed %d, %d epochs of %v after %v warm-up each\n",
		runtime.Version(), W, runtime.NumCPU(), cpuModel(), c.seed, epochs, c.window(), c.warm)
	if *aa > 0 {
		return aaReport(out, wls, c, *aa)
	}
	prefault()
	var incorrect []string
	for _, wl := range wls {
		if *trace != 1 {
			r, err := untraced(wl, c)
			if err != nil {
				return err
			}
			if err := report(out, wl, "untraced", endToEnd, r); err != nil {
				return err
			}
			if !r.Correct {
				incorrect = append(incorrect, wl.name+" untraced")
			}
		}
		if *trace != 0 {
			r, err := traced(wl, c, *traceOut)
			if err != nil {
				return err
			}
			if err := report(out, wl, "traced", perLayer, r); err != nil {
				return err
			}
			if !r.Correct {
				incorrect = append(incorrect, wl.name+" traced")
			}
		}
	}
	if len(incorrect) > 0 { // reported once every table is printed
		return fmt.Errorf("incorrect outputs in %s", strings.Join(incorrect, ", "))
	}
	return nil
}

// aaReport runs the untraced set n times on this build, each run a
// fresh process with another seed, as the driver does, and prints per
// metric and workload the median, the quartiles, their distance and the
// full range as shares of the median, against the metric's bound.
func aaReport(out io.Writer, wls []workload, c runCfg, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, wl := range wls {
			cmd := exec.Command(self, "-workload", wl.name, "-trace", "0",
				"-seed", fmt.Sprint(c.seed+uint64(i)), "-seconds", fmt.Sprint(c.seconds.Seconds()))
			if c.epochLog != nil {
				cmd.Args = append(cmd.Args, "-v")
			}
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to exit
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, c.seed+uint64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl.name, c.seed+uint64(i), err)
			}
			fmt.Fprintf(out, "run %d %s:", i, wl.name)
			for _, d := range endToEnd {
				key := wl.name + " " + d.Name
				vals[key] = append(vals[key], r.Metrics[d.Name].Value)
				fmt.Fprintf(out, " %s=%.5g", d.Name, r.Metrics[d.Name].Value)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "%-14s %-20s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, wl := range wls {
		for _, d := range endToEnd {
			v := vals[wl.name+" "+d.Name]
			sort.Float64s(v)
			q1, q3 := quartiles(v)
			med := median(v)
			verdict := ""
			if (q3-q1)/med > d.Bound {
				verdict = "  SPREAD OVER BOUND"
			}
			fmt.Fprintf(out, "%-14s %-20s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n",
				wl.name, d.Name, med, q1, q3, (q3-q1)/med, (v[len(v)-1]-v[0])/med, d.Bound, verdict)
		}
	}
	return nil
}

// quartiles are the first and third quartile of sorted v by the
// exclusive method, as Python's statistics.quantiles(v, n=4) gives them.
func quartiles(v []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(v)+1)
		i := int(pos)
		if i < 1 {
			return v[0]
		}
		if i >= len(v) {
			return v[len(v)-1]
		}
		return v[i-1] + (pos-float64(i))*(v[i]-v[i-1])
	}
	if len(v) < 2 {
		return v[0], v[0]
	}
	return at(0.25), at(0.75)
}
