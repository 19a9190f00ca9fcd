package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"wflocks/internal/obs"
)

const metricsFixture = `wfserve_conns 2
wfserve_accepted_total 2
wfserve_gets_total 100
wfserve_sets_total 40
wfserve_dels_total 10
wfserve_slab_free 120
wfserve_slab_cap 128
wflocks_attempts_total 500
wflocks_wins_total 480
wflocks_helps_total 25
wflocks_help_completions_total 6
wflocks_fastpath_total 300
wflocks_help_rate 0.050000
wflocks_fastpath_rate 0.600000
wflocks_delay_share 0.012500
wflocks_stall_alerts_total 7
wflocks_acquire_ns{quantile="0.99"} 12345
wfserve_table_shard_size{shard="0"} 17
wfserve_table_shard_capacity{shard="0"} 4096
wfserve_table_shard_size{shard="1"} 9
wfserve_table_shard_capacity{shard="1"} 4096
`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(metricsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops != 150 {
		t.Errorf("Ops = %d, want 150", s.Ops)
	}
	if s.Attempts != 500 || s.Helps != 25 || s.HelpCompletions != 6 {
		t.Errorf("Attempts/Helps/HelpCompletions = %d/%d/%d, want 500/25/6", s.Attempts, s.Helps, s.HelpCompletions)
	}
	if s.HelpRate != 0.05 || s.FastRate != 0.6 {
		t.Errorf("rates = %v/%v", s.HelpRate, s.FastRate)
	}
	if !s.HasObs || s.DelayShare != 0.0125 || s.StallAlerts != 7 {
		t.Errorf("obs = %v %v %v", s.HasObs, s.DelayShare, s.StallAlerts)
	}
	if s.SlabFree != 120 || s.SlabCap != 128 {
		t.Errorf("slab = %d/%d", s.SlabFree, s.SlabCap)
	}
	if len(s.Table) != 2 || s.Table[0] != (shardOcc{17, 4096}) || s.Table[1] != (shardOcc{9, 4096}) {
		t.Errorf("Table = %+v", s.Table)
	}
}

func TestParseMetricsEmpty(t *testing.T) {
	if _, err := parseMetrics("not an exposition\n"); err == nil {
		t.Fatal("garbage input must error")
	}
}

const statsFixture = `alert0:alert-help lock=3 pid=12 value=5000000
alert1:alert-delay lock=3 pid=9 value=900
backend:cache
delay_share:0.0125
dels:10
fastpath_rate:0.6000
gets:100
help_rate:0.0500
lock_attempts:500
lock_help_completions:6
lock_helps:25
sets:40
slab_cap:128
slab_free:120
stall_alerts:7
`

func TestParseStats(t *testing.T) {
	s, err := parseStats(statsFixture)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops != 150 || s.Attempts != 500 || s.Helps != 25 || s.HelpCompletions != 6 {
		t.Errorf("counters = %d/%d/%d/%d", s.Ops, s.Attempts, s.Helps, s.HelpCompletions)
	}
	if s.HelpRate != 0.05 || s.FastRate != 0.6 {
		t.Errorf("rates = %v/%v", s.HelpRate, s.FastRate)
	}
	if !s.HasObs || s.DelayShare != 0.0125 || s.StallAlerts != 7 {
		t.Errorf("obs = %v %v %v", s.HasObs, s.DelayShare, s.StallAlerts)
	}
	if s.SlabFree != 120 || s.SlabCap != 128 {
		t.Errorf("slab = %d/%d", s.SlabFree, s.SlabCap)
	}
	if len(s.Alerts) != 2 || !strings.HasPrefix(s.Alerts[0], "alert-help lock=3") {
		t.Errorf("Alerts = %v", s.Alerts)
	}
}

func TestRates(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	w := obs.NewWindow[sample](8)

	// One sample: rates fall back to the cumulative ratio.
	w.Add(t0, sample{Ops: 1000, Attempts: 500, Helps: 25, HelpRate: 0.05})
	ops, help := rates(w, t0, 10*time.Second)
	if ops != 0 || help != 0.05 {
		t.Errorf("single sample: ops %v help %v, want 0 and 0.05", ops, help)
	}

	// Two samples 2s apart: deltas over the gap.
	w.Add(t0.Add(2*time.Second), sample{Ops: 1400, Attempts: 700, Helps: 75, HelpRate: 0.107})
	ops, help = rates(w, t0.Add(2*time.Second), 10*time.Second)
	if ops != 200 {
		t.Errorf("ops/s = %v, want 200", ops)
	}
	if help != 0.25 { // (75-25)/(700-500)
		t.Errorf("help rate = %v, want 0.25", help)
	}

	// No attempts in the interval: help rate falls back to cumulative.
	w.Add(t0.Add(4*time.Second), sample{Ops: 1400, Attempts: 700, Helps: 75, HelpRate: 0.107})
	if _, help = rates(w, t0.Add(4*time.Second), 2*time.Second); help != 0.107 {
		t.Errorf("idle interval help rate = %v, want cumulative 0.107", help)
	}
}

// TestRenderOnce locks the -once output shape the CI grep relies on.
func TestRenderOnce(t *testing.T) {
	var b strings.Builder
	s, err := parseStats(statsFixture)
	if err != nil {
		t.Fatal(err)
	}
	render(&b, "localhost:6380", time.Unix(1700000000, 0), s, 150, 0.05, false)
	out := b.String()
	for _, want := range []string{"ops/s", "help-rate", "fast-path", "delay-share", "stall-alerts", "alert-help lock=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if re := `(?m)^help-compl +6$`; !regexp.MustCompile(re).MatchString(out) {
		t.Errorf("render missing %s:\n%s", re, out)
	}
	if strings.Contains(out, "\033") {
		t.Errorf("-once render must not emit ANSI control codes:\n%s", out)
	}
}
