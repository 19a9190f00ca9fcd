package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"wflocks"
	"wflocks/internal/obs"
)

// MetricsMux returns the server's live-observability HTTP handler:
//
//   - /metrics — Prometheus-style text exposition of the server, lock
//     manager, slab and backend table series below;
//   - /debug/vars — the standard expvar JSON (memstats, cmdline);
//   - /debug/pprof/ — the standard pprof index and profiles.
//
// The handler is cheap enough for scrape intervals — rendering merges
// the per-P histogram shards and scans the backend's meta words, never
// taking a lock or stopping traffic — but it is not meant to be hit per
// request. It works with or without Config.Metrics; without it the
// latency and delay series are simply absent.
func (s *Server) MetricsMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s.metricsText())
	})
	mux.HandleFunc("/debug/wftrace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="wftrace.json"`)
		if err := s.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// quantiles is the exposition's summary grid.
var quantiles = []float64{0.5, 0.9, 0.99, 0.999}

// metricsText renders the full /metrics exposition.
func (s *Server) metricsText() string {
	var b strings.Builder

	// Server request counters.
	fmt.Fprintf(&b, "wfserve_conns %d\n", s.stats.curConns.Load())
	fmt.Fprintf(&b, "wfserve_accepted_total %d\n", s.stats.accepted.Load())
	fmt.Fprintf(&b, "wfserve_refused_total %d\n", s.stats.refused.Load())
	fmt.Fprintf(&b, "wfserve_gets_total %d\n", s.stats.gets.Load())
	fmt.Fprintf(&b, "wfserve_hits_total %d\n", s.stats.hits.Load())
	fmt.Fprintf(&b, "wfserve_sets_total %d\n", s.stats.sets.Load())
	fmt.Fprintf(&b, "wfserve_dels_total %d\n", s.stats.dels.Load())
	fmt.Fprintf(&b, "wfserve_pings_total %d\n", s.stats.pings.Load())
	fmt.Fprintf(&b, "wfserve_errors_total %d\n", s.stats.errs.Load())

	// Admission control: slab free-list occupancy.
	fmt.Fprintf(&b, "wfserve_slab_free %d\n", len(s.free))
	fmt.Fprintf(&b, "wfserve_slab_cap %d\n", cap(s.free))

	// Lock manager: the helping machinery at work.
	ms := s.mgr.Stats()
	fmt.Fprintf(&b, "wflocks_attempts_total %d\n", ms.Attempts)
	fmt.Fprintf(&b, "wflocks_wins_total %d\n", ms.Wins)
	fmt.Fprintf(&b, "wflocks_helps_total %d\n", ms.Helps)
	fmt.Fprintf(&b, "wflocks_help_completions_total %d\n", ms.HelpCompletions)
	fmt.Fprintf(&b, "wflocks_fastpath_total %d\n", ms.FastPath)
	fmt.Fprintf(&b, "wflocks_help_rate %.6f\n", ms.HelpRate())
	fmt.Fprintf(&b, "wflocks_fastpath_rate %.6f\n", ms.FastPathRate())

	if os := s.mgr.Observe(); os.Enabled {
		fmt.Fprintf(&b, "wflocks_delay_share %.6f\n", os.DelayShare())
		fmt.Fprintf(&b, "wflocks_attempt_steps_total %d\n", os.AttemptSteps)
		fmt.Fprintf(&b, "wflocks_delay_steps_total %d\n", os.DelaySteps)
		fmt.Fprintf(&b, "wflocks_help_nanos_total %d\n", os.HelpNanos)
		fmt.Fprintf(&b, "wflocks_stall_alerts_total %d\n", os.StallAlerts)
		writeQuantiles(&b, "wflocks_acquire_ns", os.Acquire)
		writeQuantiles(&b, "wflocks_delay_iters", os.DelayIters)
		writeQuantiles(&b, "wflocks_help_run_ns", os.HelpRun)

		// Per-lock stall attribution: which shard lock charged whom.
		for _, l := range os.Locks {
			fmt.Fprintf(&b, "wflocks_lock_helps_total{lock=\"%d\"} %d\n", l.LockID, l.Helps)
			fmt.Fprintf(&b, "wflocks_lock_help_nanos_total{lock=\"%d\"} %d\n", l.LockID, l.HelpNanos)
			fmt.Fprintf(&b, "wflocks_lock_delay_steps_total{lock=\"%d\"} %d\n", l.LockID, l.DelaySteps)
			fmt.Fprintf(&b, "wflocks_lock_alerts_total{lock=\"%d\"} %d\n", l.LockID, l.Alerts)
		}
	}

	// Change journal: append/trim/retention/lag gauges (the STATS
	// journal_* block as Prometheus series).
	if s.journal != nil {
		js := s.journal.Stats()
		fmt.Fprintf(&b, "wfserve_journal_appends_total %d\n", js.Appends)
		fmt.Fprintf(&b, "wfserve_journal_trimmed_total %d\n", js.Trimmed)
		fmt.Fprintf(&b, "wfserve_journal_retained %d\n", js.Len)
		fmt.Fprintf(&b, "wfserve_journal_lag_max %d\n", js.MaxLag)
		fmt.Fprintf(&b, "wfserve_journal_reads_total %d\n", js.Reads)
		fmt.Fprintf(&b, "wfserve_journal_dropped_total %d\n", s.stats.journalDrops.Load())
	}

	// Per-op service-time summaries (backend call to response ready).
	if s.opGets != nil {
		for _, oh := range []struct {
			op string
			h  *obs.PHist
		}{{"get", s.opGets}, {"set", s.opSets}, {"del", s.opDels}} {
			hist := oh.h.Snapshot()
			for _, q := range quantiles {
				fmt.Fprintf(&b, "wfserve_op_ns{op=%q,quantile=\"%g\"} %d\n", oh.op, q, hist.Quantile(q))
			}
			fmt.Fprintf(&b, "wfserve_op_ns_count{op=%q} %d\n", oh.op, hist.Count())
			fmt.Fprintf(&b, "wfserve_op_ns_max{op=%q} %d\n", oh.op, hist.Max())
		}
	}

	// Backend table shape: occupancy and probe-chain lengths per shard.
	if ts, ok := s.backend.(tableStatser); ok {
		for i, sh := range ts.TableShards() {
			fmt.Fprintf(&b, "wfserve_table_shard_size{shard=\"%d\"} %d\n", i, sh.Size)
			fmt.Fprintf(&b, "wfserve_table_shard_capacity{shard=\"%d\"} %d\n", i, sh.Capacity)
			fmt.Fprintf(&b, "wfserve_table_shard_tombstones{shard=\"%d\"} %d\n", i, sh.Tombstones)
			fmt.Fprintf(&b, "wfserve_table_shard_max_probe{shard=\"%d\"} %d\n", i, sh.MaxProbe)
			fmt.Fprintf(&b, "wfserve_table_shard_sum_probe{shard=\"%d\"} %d\n", i, sh.SumProbe)
		}
	}
	return b.String()
}

// writeQuantiles renders one ObsSnapshot histogram as a summary.
func writeQuantiles(b *strings.Builder, name string, h wflocks.HistStats) {
	for _, q := range quantiles {
		fmt.Fprintf(b, "%s{quantile=\"%g\"} %d\n", name, q, h.Quantile(q))
	}
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
	fmt.Fprintf(b, "%s_max %d\n", name, h.Max)
}
