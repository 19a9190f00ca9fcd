package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wflocks"
	"wflocks/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the trace-export golden file")

// goldenSpans is a deterministic request history: two complete requests
// sharing slab slot 0 back to back, each waiting behind its connection's
// earlier replies before it runs, and one on slot 1 without execute
// stamps (the export skips stages a span lacks), all times hand-picked
// so the GET on lock 5 overlaps the help run on lock 5 below.
func goldenSpans() []obs.Span {
	ms := func(m int64) int64 { return m * int64(time.Millisecond) }
	return []obs.Span{
		{ID: 1, Conn: 1, Slot: 0, Op: "GET", LockID: 5, KeyHash: 0xabcd,
			ReadNS: ms(10), AdmitNS: ms(10) + 50_000,
			ExecNS: ms(11) + 20_000, DoneNS: ms(14), WriteNS: ms(15)},
		{ID: 2, Conn: 1, Slot: 0, Op: "SET", LockID: 7, KeyHash: 0x1234,
			ReadNS: ms(16), AdmitNS: ms(16) + 10_000,
			ExecNS: ms(17) + 5_000, DoneNS: ms(18), WriteNS: ms(19)},
		{ID: 3, Conn: 2, Slot: 1, Op: "DEL", LockID: 5, KeyHash: 0xabcd,
			ReadNS: ms(20), AdmitNS: ms(20) + 1_000,
			WriteNS: ms(21)},
	}
}

// goldenObs is the matching lock-layer window: an attempt on lock 5
// starts, burns a delay point, helps a stalled descriptor for 2ms
// (the slice [12ms, 14ms] inside request 1's [10ms, 15ms] span), wins;
// plus one watchdog alert for the same help run.
func goldenObs() wflocks.ObsSnapshot {
	at := func(m int64) time.Time { return time.Unix(0, m*int64(time.Millisecond)) }
	return wflocks.ObsSnapshot{
		Enabled: true,
		Events: []wflocks.TraceEvent{
			{Seq: 1, Kind: "start", Pid: 3, LockID: 5, Value: 1, Time: at(11)},
			{Seq: 2, Kind: "delay", Pid: 3, LockID: 5, Value: 40, Time: at(12)},
			{Seq: 3, Kind: "help", Pid: 3, LockID: 5, Value: 2_000_000, Time: at(14)},
			{Seq: 4, Kind: "win", Pid: 3, LockID: 5, Time: at(14)},
			{Seq: 5, Kind: "fastpath", Pid: 4, LockID: 7, Time: at(17)},
		},
		Alerts: []wflocks.TraceEvent{
			{Seq: 1, Kind: "alert-help", Pid: 3, LockID: 5, Value: 2_000_000, Time: at(14)},
		},
	}
}

// TestTraceGolden pins the Chrome trace-event export byte for byte
// (regenerate with go test -run TestTraceGolden -update) and checks
// the schema properties Perfetto needs: known phases, non-negative
// microsecond timestamps, per-lane ordering, sound nesting, and the
// causal join the export exists for — a request span overlapping a
// help event on the same lock id.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, goldenSpans(), goldenObs()); err != nil {
		t.Fatalf("writeTrace: %v", err)
	}

	golden := filepath.Join("testdata", "wftrace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export diverged from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Schema: parse it back and audit what a trace viewer relies on.
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	type lane struct{ pid, tid int }
	lastTs := map[lane]float64{}
	open := map[lane]traceEvent{}
	var reqSpans, helpSlices []traceEvent
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X", "i":
		default:
			t.Fatalf("event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Pid != tracePidRequests && ev.Pid != tracePidLocks {
			t.Fatalf("event %d has unmapped pid %d", i, ev.Pid)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d has negative time: ts %v dur %v", i, ev.Ts, ev.Dur)
		}
		l := lane{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[l] {
			t.Fatalf("event %d (%s) breaks lane (%d,%d) ts monotonicity: %v after %v",
				i, ev.Name, ev.Pid, ev.Tid, ev.Ts, lastTs[l])
		}
		lastTs[l] = ev.Ts
		if ev.Ph == "X" {
			// Slices on one lane must nest or be disjoint.
			if o, ok := open[l]; ok && ev.Ts < o.Ts+o.Dur && ev.Ts+ev.Dur > o.Ts+o.Dur {
				t.Fatalf("event %d (%s) half-overlaps %s on lane (%d,%d)", i, ev.Name, o.Name, ev.Pid, ev.Tid)
			}
			if ev.Ts+ev.Dur > lastTs[l] {
				open[l] = ev
			}
			if ev.Pid == tracePidRequests && ev.Name != "wait" && ev.Name != "exec" {
				reqSpans = append(reqSpans, ev)
			}
			if ev.Pid == tracePidLocks && ev.Name == "help" {
				helpSlices = append(helpSlices, ev)
			}
		}
	}
	if len(reqSpans) != 3 || len(helpSlices) != 1 {
		t.Fatalf("got %d request spans and %d help slices, want 3 and 1", len(reqSpans), len(helpSlices))
	}

	// The causal join: at least one request span overlaps a help slice
	// on the same lock id.
	overlap := false
	for _, sp := range reqSpans {
		for _, h := range helpSlices {
			if sp.Args["lock"] == h.Args["lock"] &&
				sp.Ts < h.Ts+h.Dur && h.Ts < sp.Ts+sp.Dur {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no request span overlaps a help slice on its lock")
	}
}

// TestTraceEmpty pins the no-data document: spans off, metrics off —
// still a valid trace with just the process metadata.
func TestTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, nil, wflocks.ObsSnapshot{}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("empty export has %d events, want the 2 metadata entries", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("empty export contains non-metadata event %+v", ev)
		}
	}
}
