// Command wftop is a live terminal dashboard for a running wfserve (or
// a wfload -loopback -metrics run): it polls the server's /metrics
// exposition or its RESP STATS command, keeps a short time-series
// window, and redraws ops/s, help rate, fast-path rate, delay share,
// stall alerts and per-shard occupancy every interval — the lock
// layer's helping machinery, watched at a glance.
//
//	wfserve -addr :6380 -metrics :9100 -trace 64 &
//	wftop -metrics localhost:9100          # poll HTTP /metrics
//	wftop -addr localhost:6380             # or poll RESP STATS
//
// -once takes a single sample, prints one report and exits — the CI
// shape. With -minhelp it then fails (exit 1) unless the observed help
// rate reaches the bound, which turns "helping actually happened under
// the stall regime" into a checkable assertion:
//
//	wftop -addr localhost:6380 -once -minhelp 0.0001
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"wflocks/internal/obs"
	"wflocks/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "localhost:6380", "RESP server address (polled via STATS)")
		metrics  = flag.String("metrics", "", "poll this HTTP /metrics endpoint instead of RESP STATS (host:port or full URL)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		window   = flag.Duration("window", 10*time.Second, "trailing span rates are computed over")
		once     = flag.Bool("once", false, "take one sample, print one report, exit")
		minhelp  = flag.Float64("minhelp", -1, "with -once: fail (exit 1) if the help rate is below this (-1 = no bound)")
	)
	flag.Parse()

	fetch, src := fetcher(*addr, *metrics)
	samples := *window / *interval
	if samples < 2 {
		samples = 2
	}
	win := obs.NewWindow[sample](int(samples) + 1)

	poll := func() (float64, bool) {
		s, err := fetch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wftop: %s: %v\n", src, err)
			return 0, false
		}
		now := time.Now()
		win.Add(now, s)
		ops, help := rates(win, now, *window)
		render(os.Stdout, src, now, s, ops, help, !*once)
		return help, true
	}

	if *once {
		help, ok := poll()
		if !ok {
			return 1
		}
		if *minhelp >= 0 && help < *minhelp {
			fmt.Fprintf(os.Stderr, "wftop: help rate %.6f below bound %.6f\n", help, *minhelp)
			return 1
		}
		return 0
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	poll()
	for {
		select {
		case <-sig:
			fmt.Println()
			return 0
		case <-tick.C:
			poll()
		}
	}
}

// fetcher picks the poll source: the HTTP exposition when -metrics is
// set, RESP STATS otherwise.
func fetcher(addr, metrics string) (func() (sample, error), string) {
	if metrics != "" {
		url := metrics
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		if !strings.Contains(url[strings.Index(url, "://")+3:], "/") {
			url += "/metrics"
		}
		client := &http.Client{Timeout: 5 * time.Second}
		return func() (sample, error) {
			resp, err := client.Get(url)
			if err != nil {
				return sample{}, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return sample{}, fmt.Errorf("status %s", resp.Status)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return sample{}, err
			}
			return parseMetrics(string(body))
		}, url
	}
	return func() (sample, error) {
		conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
		if err != nil {
			return sample{}, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(serve.AppendCommand(nil, "STATS")); err != nil {
			return sample{}, err
		}
		r, err := serve.ReadReply(bufio.NewReader(conn))
		if err != nil {
			return sample{}, err
		}
		if r.Kind != serve.ReplyBulk {
			return sample{}, fmt.Errorf("STATS reply = %+v", r)
		}
		return parseStats(r.Str)
	}, addr
}

// render draws one dashboard frame (with clear = the live loop's ANSI
// home-and-wipe; without = plain print for -once).
func render(w io.Writer, src string, now time.Time, s sample, ops, help float64, clear bool) {
	if clear {
		fmt.Fprint(w, "\033[H\033[2J")
	}
	fmt.Fprintf(w, "wftop — %s — %s\n\n", src, now.Format("15:04:05"))
	fmt.Fprintf(w, "%-12s %12.0f\n", "ops/s", ops)
	fmt.Fprintf(w, "%-12s %12.4f\n", "help-rate", help)
	fmt.Fprintf(w, "%-12s %12.4f\n", "fast-path", s.FastRate)
	fmt.Fprintf(w, "%-12s %12d\n", "help-compl", s.HelpCompletions)
	if s.HasObs {
		fmt.Fprintf(w, "%-12s %12.4f\n", "delay-share", s.DelayShare)
		fmt.Fprintf(w, "%-12s %12d\n", "stall-alerts", s.StallAlerts)
	}
	if s.SlabCap > 0 {
		fmt.Fprintf(w, "%-12s %9d/%d\n", "slab-free", s.SlabFree, s.SlabCap)
	}
	if len(s.Table) > 0 {
		fmt.Fprintf(w, "\nshard occupancy (size/cap):\n")
		for i, sh := range s.Table {
			fmt.Fprintf(w, "  %3d %d/%d", i, sh.Size, sh.Cap)
			if (i+1)%4 == 0 || i == len(s.Table)-1 {
				fmt.Fprintln(w)
			}
		}
	}
	if len(s.Alerts) > 0 {
		fmt.Fprintf(w, "\nrecent stall alerts:\n")
		for _, a := range s.Alerts {
			fmt.Fprintf(w, "  %s\n", a)
		}
	}
}
