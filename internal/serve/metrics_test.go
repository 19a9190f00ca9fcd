package serve_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"wflocks/internal/serve"
)

// metricsServer runs a metrics-enabled server plus an httptest front for
// its MetricsMux, and pushes a little traffic through so every series
// has data: one request at a time, then a pipelined burst.
func metricsServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, lis := startServer(t, cfg)
	c := dial(t, lis)
	for i := 0; i < 64; i++ {
		k := "k" + string(rune('a'+i%16))
		if r := c.do(t, "SET", k, "v"); r.Str != "OK" {
			t.Fatalf("SET = %+v", r)
		}
		c.do(t, "GET", k)
	}
	c.do(t, "DEL", "ka")
	var burst []byte
	for i := 0; i < 16; i++ {
		k := "k" + string(rune('a'+i))
		burst = serve.AppendCommand(burst, "SET", k, "w")
		burst = serve.AppendCommand(burst, "GET", k)
	}
	if _, err := c.conn.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	for i := 0; i < 32; i++ {
		if _, err := serve.ReadReply(c.br); err != nil {
			t.Fatalf("burst reply %d: %v", i, err)
		}
	}
	h := httptest.NewServer(s.MetricsMux())
	t.Cleanup(h.Close)
	return s, h
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, h := metricsServer(t, serve.Config{TraceSample: 1})
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type %q", ct)
	}
	resp.Body.Close()
	code, body := get(t, h.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	// Counter series fed by the traffic above must be nonzero.
	for _, re := range []string{
		`(?m)^wfserve_gets_total [1-9]\d*$`,
		`(?m)^wfserve_sets_total [1-9]\d*$`,
		`(?m)^wfserve_dels_total [1-9]\d*$`,
		`(?m)^wfserve_slab_free \d+$`,
		`(?m)^wfserve_slab_cap [1-9]\d*$`,
		`(?m)^wflocks_attempts_total [1-9]\d*$`,
		`(?m)^wflocks_wins_total [1-9]\d*$`,
		`(?m)^wflocks_help_rate \d`,
		`(?m)^wflocks_fastpath_rate \d`,
		// TraceSample implies metrics, so the latency summaries render.
		`(?m)^wflocks_delay_share \d`,
		`(?m)^wflocks_attempt_steps_total [1-9]\d*$`,
		`(?m)^wflocks_acquire_ns\{quantile="0\.99"\} [1-9]\d*$`,
		`(?m)^wflocks_acquire_ns_count [1-9]\d*$`,
		`(?m)^wflocks_delay_iters\{quantile="0\.5"\} \d+$`,
		`(?m)^wflocks_help_run_ns\{quantile="0\.5"\} \d+$`,
		`(?m)^wfserve_op_ns\{op="get",quantile="0\.99"\} [1-9]\d*$`,
		`(?m)^wfserve_op_ns_count\{op="set"\} [1-9]\d*$`,
		// Default backend is the wf map, which exposes table shape.
		`(?m)^wfserve_table_shard_size\{shard="0"\} [1-9]\d*$`,
		`(?m)^wfserve_table_shard_capacity\{shard="0"\} [1-9]\d*$`,
		`(?m)^wfserve_table_shard_max_probe\{shard="0"\} \d+$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("/metrics missing series %s\n%s", re, body)
		}
	}
	// TraceSample implies metrics, so the stall-alert counter renders
	// (zero here: no watchdog bound is armed).
	if !regexp.MustCompile(`(?m)^wflocks_stall_alerts_total \d+$`).MatchString(body) {
		t.Errorf("/metrics missing wflocks_stall_alerts_total:\n%s", body)
	}
	// No journal configured, so no journal series.
	if strings.Contains(body, "wfserve_journal_") {
		t.Errorf("journal series must be absent without Config.JournalCap:\n%s", body)
	}
}

func TestMetricsJournalSeries(t *testing.T) {
	_, h := metricsServer(t, serve.Config{JournalCap: 1024})
	code, body := get(t, h.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	// The 64 SETs and the DEL pushed by metricsServer are all appends.
	for _, re := range []string{
		`(?m)^wfserve_journal_appends_total [1-9]\d*$`,
		`(?m)^wfserve_journal_trimmed_total \d+$`,
		`(?m)^wfserve_journal_retained [1-9]\d*$`,
		`(?m)^wfserve_journal_lag_max \d+$`,
		`(?m)^wfserve_journal_reads_total \d+$`,
		`(?m)^wfserve_journal_dropped_total \d+$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("/metrics missing journal series %s\n%s", re, body)
		}
	}
}

// TestStatsStallAlerts drives the stall regime until the help-run
// watchdog fires, then checks the alerts surface everywhere they
// should: the STATS stall_alerts line and alert ring, the /metrics
// stall-alert counter, and the per-lock attribution series.
func TestStatsStallAlerts(t *testing.T) {
	srv, lis := startServer(t, serve.Config{
		Backend:         serve.BackendCache,
		Shards:          1,
		WatchdogHelpRun: 50 * time.Microsecond,
		Stall:           func() { time.Sleep(200 * time.Microsecond) },
	})
	conns := make([]*client, 4)
	for i := range conns {
		conns[i] = dial(t, lis)
	}
	const per = 16
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; srv.Manager().Observe().StallAlerts == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired under the stall regime")
		}
		for ci, c := range conns {
			var buf []byte
			for j := 0; j < per; j++ {
				buf = serve.AppendCommand(buf, "SET", fmt.Sprintf("k%d-%d-%d", ci, round, j), "v")
			}
			if _, err := c.conn.Write(buf); err != nil {
				t.Fatalf("round %d: write burst: %v", round, err)
			}
		}
		for ci, c := range conns {
			for j := 0; j < per; j++ {
				if r, err := serve.ReadReply(c.br); err != nil || r.Str != "OK" {
					t.Fatalf("round %d conn %d SET %d reply = %+v, %v", round, ci, j, r, err)
				}
			}
		}
	}

	c := dial(t, lis)
	r := c.do(t, "STATS")
	if !regexp.MustCompile(`stall_alerts:[1-9]\d*`).MatchString(r.Str) {
		t.Errorf("STATS missing nonzero stall_alerts:\n%s", r.Str)
	}
	if !regexp.MustCompile(`alert0:alert-(help|delay) lock=\d+ pid=\d+ value=[1-9]\d*`).MatchString(r.Str) {
		t.Errorf("STATS missing alert ring lines:\n%s", r.Str)
	}

	h := httptest.NewServer(srv.MetricsMux())
	t.Cleanup(h.Close)
	code, body := get(t, h.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, re := range []string{
		`(?m)^wflocks_stall_alerts_total [1-9]\d*$`,
		// Watchdog alerts imply help runs, attributed to the shard lock.
		`(?m)^wflocks_lock_helps_total\{lock="\d+"\} [1-9]\d*$`,
		`(?m)^wflocks_lock_help_nanos_total\{lock="\d+"\} [1-9]\d*$`,
		`(?m)^wflocks_lock_alerts_total\{lock="\d+"\} [1-9]\d*$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("/metrics missing series %s\n%s", re, body)
		}
	}
}

func TestMetricsEndpointWithoutMetrics(t *testing.T) {
	// MetricsMux works on a plain server too: counters render, latency
	// summaries are simply absent.
	_, h := metricsServer(t, serve.Config{})
	code, body := get(t, h.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "wflocks_attempts_total") || !strings.Contains(body, "wflocks_help_completions_total") {
		t.Fatalf("lock counters must render without Config.Metrics:\n%s", body)
	}
	if strings.Contains(body, "wflocks_delay_share") || strings.Contains(body, "wfserve_op_ns") {
		t.Fatalf("latency series must be absent without Config.Metrics:\n%s", body)
	}
}

func TestMetricsDebugHandlers(t *testing.T) {
	_, h := metricsServer(t, serve.Config{Metrics: true})
	if code, body := get(t, h.URL+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d body %.80s", code, body)
	}
	if code, body := get(t, h.URL+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %.80s", code, body)
	}
}

func TestStatsObservability(t *testing.T) {
	for _, backend := range []string{serve.BackendMap, serve.BackendCache} {
		t.Run(backend, func(t *testing.T) {
			_, lis := startServer(t, serve.Config{Backend: backend, Metrics: true})
			c := dial(t, lis)
			for i := 0; i < 32; i++ {
				c.do(t, "SET", "k"+string(rune('a'+i%8)), "v")
				c.do(t, "GET", "k"+string(rune('a'+i%8)))
			}
			r := c.do(t, "STATS")
			if r.Kind != serve.ReplyBulk {
				t.Fatalf("STATS = %+v", r)
			}
			for _, want := range []string{
				"slab_free:", "slab_cap:",
				"lock_attempts:", "lock_helps:", "lock_help_completions:", "help_rate:", "fastpath_rate:",
				"delay_share:", "acquire_ns_p50:", "acquire_ns_p99:",
				"help_run_ns_p50:", "get_ns_p50:", "set_ns_p99:",
			} {
				if !strings.Contains(r.Str, want) {
					t.Errorf("STATS missing %q:\n%s", want, r.Str)
				}
			}
		})
	}
}

func TestStatsWithoutMetrics(t *testing.T) {
	_, lis := startServer(t, serve.Config{})
	c := dial(t, lis)
	c.do(t, "SET", "k", "v")
	r := c.do(t, "STATS")
	if !strings.Contains(r.Str, "lock_attempts:") || !strings.Contains(r.Str, "slab_free:") {
		t.Fatalf("counter lines must render without metrics:\n%s", r.Str)
	}
	if strings.Contains(r.Str, "delay_share:") || strings.Contains(r.Str, "acquire_ns_p50:") {
		t.Fatalf("latency lines must be absent without metrics:\n%s", r.Str)
	}
}

// TestStatsMetricsTwins: every integer server counter STATS reports has
// a /metrics twin with the same value. The twin of field f is
// wfserve_f or wfserve_f_total, and of lock_f wflocks_f_total. The
// server is idle when both are read, so the two reads agree.
func TestStatsMetricsTwins(t *testing.T) {
	s, lis := startServer(t, serve.Config{Backend: serve.BackendCache, JournalCap: 64})
	c := dial(t, lis)
	c.do(t, "SET", "k", "v")
	c.do(t, "GET", "k")
	c.do(t, "GET", "missing")
	c.do(t, "DEL", "k")
	c.do(t, "PING")
	c.do(t, "NOPE")
	stats := c.do(t, "STATS").Str
	h := httptest.NewServer(s.MetricsMux())
	defer h.Close()
	_, body := get(t, h.URL+"/metrics")

	series := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			series[name] = val
		}
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(stats), "\n") {
		field, val, _ := strings.Cut(line, ":")
		if _, err := strconv.ParseUint(val, 10, 64); err != nil || field == "uptime_ms" {
			continue // not a counter: backend name, rates, uptime
		}
		twins := []string{"wfserve_" + field, "wfserve_" + field + "_total"}
		if rest, ok := strings.CutPrefix(field, "lock_"); ok {
			twins = []string{"wflocks_" + rest + "_total"}
		}
		found := false
		for _, name := range twins {
			if got, ok := series[name]; ok {
				found = true
				if got != val {
					t.Errorf("STATS %s:%s but /metrics %s %s", field, val, name, got)
				}
			}
		}
		if !found {
			t.Errorf("STATS %s has no /metrics twin (want one of %v)", field, twins)
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("compared only %d STATS counters:\n%s", checked, stats)
	}
}
