// Command wfload is the coordinated-omission-safe load generator for
// wfserve: an open-loop arrival schedule at a fixed rate, with every
// latency measured from the operation's *intended* send time, so
// queueing delay behind a stalled server lands in the percentiles
// instead of being silently absorbed (see internal/serve/loadgen).
//
//	wfserve -addr :6380 &
//	wfload -addr localhost:6380 -rate 20000 -duration 10s -prefill
//
// With -loopback it instead hosts the server in-process over a
// pipe-based listener — no port is opened, which is how CI runs it —
// and -stall additionally injects the repository's standard
// holder-stall regime (every 16th backend value write sleeps 4ms while
// its lock is held) into that server:
//
//	wfload -loopback cache -stall -rate 4000 -duration 2s -prefill
//
// The exit status is 0 only if every scheduled operation was sent and
// answered and, when -p99max is given, the aggregate p99 stayed under
// the bound — which is what makes it usable as a CI smoke check.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"wflocks/internal/bench"
	"wflocks/internal/serve"
	"wflocks/internal/serve/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "localhost:6380", "server address to load")
		loopback = flag.String("loopback", "", "host an in-process server with this backend (map, cache or mutex) instead of dialing -addr")
		stall    = flag.Bool("stall", false, "with -loopback: inject the standard holder-stall regime into the server")
		rate     = flag.Float64("rate", 1000, "aggregate arrival rate, ops/sec")
		duration = flag.Duration("duration", 5*time.Second, "scheduled arrival window")
		conns    = flag.Int("conns", 4, "client connections")
		keys     = flag.Int("keys", 1024, "keyspace size")
		skew     = flag.Float64("skew", 0, "Zipf exponent for key choice (0 = uniform)")
		getPct   = flag.Int("get", 90, "GET percent of the op mix")
		setPct   = flag.Int("set", 10, "SET percent of the op mix")
		delPct   = flag.Int("del", 0, "DEL percent of the op mix")
		valBytes = flag.Int("valbytes", 16, "SET payload size")
		prefill  = flag.Bool("prefill", false, "store every key once before the clock starts")
		seed     = flag.Uint64("seed", 1, "key/op stream seed")
		p99max   = flag.Duration("p99max", 0, "fail (exit 1) if aggregate p99 exceeds this (0 = no bound)")
		metrics  = flag.String("metrics", "", "with -loopback: HTTP listen address serving the in-process server's /metrics and /debug/pprof/ during the run")
		trace    = flag.Int("trace", 0, "with -loopback: flight-recorder sample rate, 1 in N lock attempts (0 = off; implies latency metrics)")
		tracefl  = flag.String("tracefile", "", "with -loopback: write the run's Chrome trace-event JSON (Perfetto-loadable, see /debug/wftrace) here after the run; implies -trace 1 unless -trace is set")
		wdSteps  = flag.Uint64("wdsteps", 0, "with -loopback: stall-watchdog bound on delay steps charged to one attempt (0 = off)")
		wdHelp   = flag.Duration("wdhelp", 0, "with -loopback: stall-watchdog bound on a single help run's wall time (0 = off)")
		maxAl    = flag.Int("maxalerts", -1, "with -loopback: fail (exit 1) if stall alerts exceed this; needs -wdsteps or -wdhelp (-1 = no bound)")
	)
	flag.Parse()

	if *tracefl != "" && *trace == 0 {
		*trace = 1
	}
	if *maxAl >= 0 && *wdSteps == 0 && *wdHelp == 0 {
		fmt.Fprintln(os.Stderr, "wfload: -maxalerts needs a watchdog bound: set -wdsteps or -wdhelp")
		return 1
	}
	dial, srv, cleanup, prefilled, err := dialer(*addr, *loopback, *stall, *prefill, *keys, *valBytes, *metrics != "" || *trace > 0, *trace, *wdSteps, *wdHelp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
		return 1
	}
	defer cleanup()
	if srv == nil && (*tracefl != "" || *maxAl >= 0 || *wdSteps > 0 || *wdHelp > 0) {
		fmt.Fprintln(os.Stderr, "wfload: -tracefile, -maxalerts, -wdsteps and -wdhelp need -loopback: they read the in-process server")
		return 1
	}

	if *metrics != "" {
		if srv == nil {
			fmt.Fprintln(os.Stderr, "wfload: -metrics needs -loopback: a remote server exposes its own endpoint")
			return 1
		}
		mlis, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfload: metrics listener: %v\n", err)
			return 1
		}
		msrv := &http.Server{Handler: srv.MetricsMux()}
		go msrv.Serve(mlis)
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wfload: metrics on http://%s/metrics\n", mlis.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration+60*time.Second)
	defer cancel()
	res, err := loadgen.Run(ctx, dial, loadgen.Config{
		Rate:     *rate,
		Duration: *duration,
		Conns:    *conns,
		Keys:     *keys,
		Skew:     *skew,
		GetPct:   *getPct,
		SetPct:   *setPct,
		DelPct:   *delPct,
		ValBytes: *valBytes,
		Prefill:  *prefill && !prefilled,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
		return 1
	}
	report(res)
	if srv != nil {
		reportServer(srv)
	}
	// The trace artifact is written before the pass/fail checks so a
	// failing run still leaves the evidence behind.
	if *tracefl != "" {
		if err := writeTraceFile(srv, *tracefl); err != nil {
			fmt.Fprintf(os.Stderr, "wfload: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wfload: trace written to %s (load in ui.perfetto.dev)\n", *tracefl)
	}

	if res.Total.Done == 0 || res.Total.Done != res.Total.Sent {
		fmt.Fprintf(os.Stderr, "wfload: %d of %d scheduled ops answered\n", res.Total.Done, res.Total.Sent)
		return 1
	}
	if *p99max > 0 {
		if p99 := res.Quantile(0.99); p99 > *p99max {
			fmt.Fprintf(os.Stderr, "wfload: p99 %v exceeds bound %v\n", p99, *p99max)
			return 1
		}
	}
	if *maxAl >= 0 {
		if alerts := srv.Manager().Observe().StallAlerts; alerts > uint64(*maxAl) {
			fmt.Fprintf(os.Stderr, "wfload: %d stall alerts exceed bound %d\n", alerts, *maxAl)
			return 1
		}
	}
	return 0
}

// writeTraceFile exports the loopback server's request spans joined
// with its lock-level flight recorder as Chrome trace-event JSON.
func writeTraceFile(srv *serve.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := srv.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// dialer picks the transport: TCP to -addr, or an in-process loopback
// server (the CI path — no port is opened). For a loopback server the
// prefill happens here, directly against the backend, so the armed
// stall schedule belongs entirely to the measured run; prefilled
// reports that so the generator skips its own wire prefill. The
// returned server is non-nil only for the loopback path, where the
// harness can expose and report its observability.
func dialer(addr, loopback string, stall, prefill bool, keys, valBytes int, withMetrics bool, traceRate int, wdSteps uint64, wdHelp time.Duration) (func() (net.Conn, error), *serve.Server, func(), bool, error) {
	if loopback == "" {
		if stall {
			return nil, nil, nil, false, fmt.Errorf("-stall needs -loopback: a remote server's stalls are its own")
		}
		return func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil, func() {}, false, nil
	}
	capacity := 2 * keys
	if capacity < 256 {
		capacity = 256
	}
	cfg := serve.Config{
		Backend:            loopback,
		Shards:             16,
		Capacity:           capacity,
		MaxKeyBytes:        16,
		MaxValBytes:        valBytes,
		Metrics:            withMetrics,
		TraceSample:        traceRate,
		WatchdogDelaySteps: wdSteps,
		WatchdogHelpRun:    wdHelp,
	}
	var sp *bench.StallPoint
	if stall {
		sp = bench.NewStallPoint(bench.StallPeriod, bench.StallDur)
		cfg.Stall = sp.Hit
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, nil, nil, false, err
	}
	if prefill {
		val := loadgen.Val(valBytes)
		for k := 0; k < keys; k++ {
			if err := s.Backend().Set(loadgen.Key(k), val, 0); err != nil {
				return nil, nil, nil, false, fmt.Errorf("prefill key %d: %w", k, err)
			}
		}
	}
	sp.Arm()
	lis := serve.NewLoopback()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()
	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "wfload: loopback drain: %v\n", err)
		}
		<-serveDone
	}
	return lis.Dial, s, cleanup, prefill, nil
}

// reportServer prints the loopback server's lock-manager view of the
// run: how often attempts helped, how many skipped the delay schedule,
// and — with metrics on — where the delay budget and help time went.
func reportServer(s *serve.Server) {
	ms := s.Manager().Stats()
	fmt.Printf("server: attempts %d  help-rate %.4f  fast-path %.4f",
		ms.Attempts, ms.HelpRate(), ms.FastPathRate())
	if os := s.Manager().Observe(); os.Enabled {
		fmt.Printf("  delay-share %.4f  help-run p50/p99 %v/%v",
			os.DelayShare(),
			time.Duration(os.HelpRun.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(os.HelpRun.Quantile(0.99)).Round(time.Microsecond))
		if os.Events != nil {
			fmt.Printf("  traced-events %d", len(os.Events))
		}
		if os.StallAlerts > 0 {
			fmt.Printf("  stall-alerts %d", os.StallAlerts)
		}
	}
	fmt.Println()
}

// report prints the run summary: aggregate percentiles, then the
// per-op-type breakdown.
func report(res *loadgen.Result) {
	fmt.Printf("open-loop: intended %.0f ops/s, achieved %.0f ops/s over %v\n",
		res.IntendedRate, res.AchievedRate, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("%-6s %9s %9s %7s %11s %11s %11s %11s %11s\n",
		"op", "sent", "done", "errs", "p50", "p90", "p99", "p99.9", "max")
	row := func(name string, r *loadgen.OpResult) {
		if r.Sent == 0 {
			return
		}
		q := func(p float64) time.Duration { return time.Duration(r.Hist.Quantile(p)).Round(time.Microsecond) }
		fmt.Printf("%-6s %9d %9d %7d %11v %11v %11v %11v %11v\n",
			name, r.Sent, r.Done, r.Errors,
			q(0.50), q(0.90), q(0.99), q(0.999),
			time.Duration(r.Hist.Max()).Round(time.Microsecond))
	}
	row("all", &res.Total)
	for _, kind := range []serve.Op{serve.OpGet, serve.OpSet, serve.OpDel} {
		row(kind.String(), res.PerOp[kind])
	}
}
