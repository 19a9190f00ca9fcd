// Command wfserve runs the network-facing KV/cache service: a
// RESP-subset protocol (GET/SET/DEL/PING/STATS, SET ... PX for
// per-entry TTL) over TCP, executed against a wait-free Map or Cache
// backend — or the sharded-mutex baseline, kept for head-to-head
// comparison. Each connection's writer runs its requests in order, so
// a pipelining client reads its own writes and gets replies in order.
//
//	wfserve -addr :6380 -backend cache -capacity 65536 -ttl 5m
//	redis-cli -p 6380 SET k v        # the protocol is a RESP subset
//	redis-cli -p 6380 GET k
//
// SIGINT/SIGTERM drains gracefully: listeners close, in-flight
// requests complete and are written back, then connections close.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wflocks/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", ":6380", "listen address")
		backend  = flag.String("backend", "cache", "storage backend: map, cache or mutex")
		shards   = flag.Int("shards", 16, "backend shard count")
		capacity = flag.Int("capacity", 65536, "backend entry capacity")
		ttl      = flag.Duration("ttl", 0, "cache default TTL (0 = entries never expire)")
		maxConns = flag.Int("max-conns", 256, "concurrent connection limit")
		journal  = flag.Int("journal", 0, "change-journal capacity in events (0 = no journal); SET/DEL append key-hash events readable via Server.Journal cursors, reported under journal_* in STATS")
		maxKey   = flag.Int("max-key-bytes", 64, "key size bound (sizes the fixed-width codec)")
		maxVal   = flag.Int("max-val-bytes", 128, "value size bound (sizes the fixed-width codec)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		metrics  = flag.String("metrics", "", "HTTP listen address for /metrics, /debug/vars and /debug/pprof/ (empty = no endpoint)")
		trace    = flag.Int("trace", 0, "flight-recorder sample rate: trace 1 in N lock attempts (0 = off; implies latency metrics)")
		wdSteps  = flag.Uint64("wdsteps", 0, "stall-watchdog bound on delay steps charged to one attempt; excessions count stall alerts in STATS and /metrics (0 = off)")
		wdHelp   = flag.Duration("wdhelp", 0, "stall-watchdog bound on a single help run's wall time (0 = off)")
	)
	flag.Parse()

	s, err := serve.NewServer(serve.Config{
		Backend:            *backend,
		Shards:             *shards,
		Capacity:           *capacity,
		TTL:                *ttl,
		JournalCap:         *journal,
		MaxConns:           *maxConns,
		MaxKeyBytes:        *maxKey,
		MaxValBytes:        *maxVal,
		Metrics:            *metrics != "",
		TraceSample:        *trace,
		WatchdogDelaySteps: *wdSteps,
		WatchdogHelpRun:    *wdHelp,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		return 1
	}

	if *metrics != "" {
		mlis, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfserve: metrics listener: %v\n", err)
			return 1
		}
		msrv := &http.Server{Handler: s.MetricsMux()}
		go msrv.Serve(mlis)
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wfserve: metrics on http://%s/metrics\n", mlis.Addr())
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wfserve: %s backend, listening on %s\n", *backend, lis.Addr())

	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveDone:
		fmt.Fprintf(os.Stderr, "wfserve: listener failed: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "wfserve: %v, draining (up to %v)\n", got, *drainFor)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: drain: %v\n", err)
		return 1
	}
	if err := <-serveDone; err != nil {
		fmt.Fprintf(os.Stderr, "wfserve: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "wfserve: drained cleanly")
	return 0
}
