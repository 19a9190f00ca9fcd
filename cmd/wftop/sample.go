package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"wflocks/internal/obs"
)

// sample is one poll of a server's cumulative counters, parsed from
// either the Prometheus /metrics exposition or the RESP STATS reply
// into the common shape the dashboard renders. Counters are cumulative
// since server start; rates come from deltas between samples.
type sample struct {
	Ops             uint64 // gets + sets + dels answered
	Attempts        uint64 // lock attempts
	Helps           uint64 // descriptors helped
	HelpCompletions uint64 // won descriptors whose body a helper finished

	HelpRate float64 // cumulative helps/attempts, as the source reports it
	FastRate float64 // cumulative fast-path rate

	HasObs      bool    // latency metrics enabled on the server
	DelayShare  float64 // delay steps / attempt steps
	StallAlerts uint64  // watchdog firings

	SlabFree, SlabCap int

	Table  []shardOcc // backend table occupancy per shard (metrics only)
	Alerts []string   // watchdog alert ring lines (STATS only)
}

// shardOcc is one backend shard's entry count against its capacity.
type shardOcc struct{ Size, Cap int }

// parseMetrics reads the Prometheus text exposition MetricsMux serves.
func parseMetrics(text string) (sample, error) {
	var s sample
	table := map[int]*shardOcc{}
	seen := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		name, label := splitLabel(name)
		seen = true
		switch name {
		case "wfserve_gets_total", "wfserve_sets_total", "wfserve_dels_total":
			s.Ops += uint64(f)
		case "wflocks_attempts_total":
			s.Attempts = uint64(f)
		case "wflocks_helps_total":
			s.Helps = uint64(f)
		case "wflocks_help_completions_total":
			s.HelpCompletions = uint64(f)
		case "wflocks_help_rate":
			s.HelpRate = f
		case "wflocks_fastpath_rate":
			s.FastRate = f
		case "wflocks_delay_share":
			s.HasObs, s.DelayShare = true, f
		case "wflocks_stall_alerts_total":
			s.StallAlerts = uint64(f)
		case "wfserve_slab_free":
			s.SlabFree = int(f)
		case "wfserve_slab_cap":
			s.SlabCap = int(f)
		case "wfserve_table_shard_size":
			tableAt(table, label).Size = int(f)
		case "wfserve_table_shard_capacity":
			tableAt(table, label).Cap = int(f)
		}
	}
	if !seen {
		return s, fmt.Errorf("no metrics series found")
	}
	s.Table = orderedTable(table)
	return s, nil
}

// splitLabel splits `name{shard="3"}` into the bare name and the first
// label's value ("" when unlabeled).
func splitLabel(name string) (string, string) {
	bare, rest, ok := strings.Cut(name, "{")
	if !ok {
		return name, ""
	}
	if _, v, ok := strings.Cut(rest, `="`); ok {
		if v, _, ok := strings.Cut(v, `"`); ok {
			return bare, v
		}
	}
	return bare, ""
}

func tableAt(m map[int]*shardOcc, label string) *shardOcc {
	i, err := strconv.Atoi(label)
	if err != nil {
		i = -1
	}
	if m[i] == nil {
		m[i] = &shardOcc{}
	}
	return m[i]
}

func orderedTable(m map[int]*shardOcc) []shardOcc {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]shardOcc, 0, len(keys))
	for _, k := range keys {
		out = append(out, *m[k])
	}
	return out
}

// parseStats reads the RESP STATS reply (sorted key:value lines).
func parseStats(text string) (sample, error) {
	var s sample
	seen := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		seen = true
		if strings.HasPrefix(key, "alert") {
			if _, err := strconv.Atoi(key[len("alert"):]); err == nil {
				s.Alerts = append(s.Alerts, val)
				continue
			}
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch key {
		case "gets", "sets", "dels":
			s.Ops += uint64(f)
		case "lock_attempts":
			s.Attempts = uint64(f)
		case "lock_helps":
			s.Helps = uint64(f)
		case "lock_help_completions":
			s.HelpCompletions = uint64(f)
		case "help_rate":
			s.HelpRate = f
		case "fastpath_rate":
			s.FastRate = f
		case "delay_share":
			s.HasObs, s.DelayShare = true, f
		case "stall_alerts":
			s.StallAlerts = uint64(f)
		case "slab_free":
			s.SlabFree = int(f)
		case "slab_cap":
			s.SlabCap = int(f)
		}
	}
	if !seen {
		return s, fmt.Errorf("no STATS lines found")
	}
	return s, nil
}

// rates derives the dashboard's headline numbers from the sample
// window: ops/s over the trailing span seconds, and the help rate over
// the same interval's attempts. With a single sample (or no attempts in
// the interval) it falls back to the cumulative ratios, so -once still
// reports meaningful rates.
func rates(w *obs.Window[sample], now time.Time, span time.Duration) (opsPerSec, helpRate float64) {
	cur, ok := w.Latest()
	if !ok {
		return 0, 0
	}
	helpRate = cur.Val.HelpRate
	old, _ := w.At(now.Add(-span))
	dt := cur.At.Sub(old.At).Seconds()
	if dt <= 0 {
		return 0, helpRate
	}
	opsPerSec = float64(cur.Val.Ops-old.Val.Ops) / dt
	if da := cur.Val.Attempts - old.Val.Attempts; da > 0 {
		helpRate = float64(cur.Val.Helps-old.Val.Helps) / float64(da)
	}
	return opsPerSec, helpRate
}
