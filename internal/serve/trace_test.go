package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wflocks/internal/serve"
)

// jsonTraceEvent / jsonTraceDoc mirror the exported Chrome trace-event
// document for the external-view assertions.
type jsonTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type jsonTraceDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []jsonTraceEvent `json:"traceEvents"`
}

// TestTraceLiveOverlap is the acceptance run: a stall-regime loopback
// server (one shard, a sleeping holder, full trace sampling) must
// export, on /debug/wftrace, at least one request span whose wall
// interval overlaps a helped-descriptor slice on the same lock id —
// the causal join the whole export exists for.
//
// The lock-level flight recorder is a fixed recent window (4096 events,
// a few bursts' worth; idle workers are parked and add nothing to it),
// and whether a burst produces a help at all is up to the scheduler. The
// test therefore fetches the export right after each contended burst
// and retries the join on fresh rounds rather than expecting the first
// one to show it.
func TestTraceLiveOverlap(t *testing.T) {
	srv, lis := startServer(t, serve.Config{
		Backend:         serve.BackendCache,
		Shards:          1, // every key contends on one lock
		TraceSample:     1,
		WatchdogHelpRun: 50 * time.Microsecond,
		Stall:           func() { time.Sleep(200 * time.Microsecond) },
	})
	conns := make([]*client, 4)
	for i := range conns {
		conns[i] = dial(t, lis)
	}
	hs := httptest.NewServer(srv.MetricsMux())
	defer hs.Close()

	fetchDoc := func() jsonTraceDoc {
		t.Helper()
		resp, err := http.Get(hs.URL + "/debug/wftrace")
		if err != nil {
			t.Fatalf("GET /debug/wftrace: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var doc jsonTraceDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("/debug/wftrace is not valid JSON: %v", err)
		}
		return doc
	}

	// Pipeline bursts of distinct-key SETs from several connections so
	// workers pile onto the single shard lock concurrently, then fetch
	// the export and join request slices (pid 1) against help slices
	// (pid 2) by lock id and wall-time overlap.
	const per = 16
	deadline := time.Now().Add(20 * time.Second)
	overlap := false
	for round := 0; !overlap; round++ {
		if time.Now().After(deadline) {
			t.Fatal("no exported request span ever overlapped a help slice on its lock")
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

		doc := fetchDoc()
		var reqSlices, helpSlices []jsonTraceEvent
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			switch {
			case ev.Pid == 1 && ev.Name == "SET":
				reqSlices = append(reqSlices, ev)
			case ev.Pid == 2 && ev.Name == "help":
				helpSlices = append(helpSlices, ev)
			}
		}
		if len(reqSlices) == 0 {
			t.Fatalf("round %d: export carries no request slices", round)
		}
		for _, sp := range reqSlices {
			for _, h := range helpSlices {
				if sp.Args["lock"] == h.Args["lock"] &&
					sp.Ts < h.Ts+h.Dur && h.Ts < sp.Ts+sp.Dur {
					overlap = true
				}
			}
		}
	}

	// The 200µs holder stalls also blow the 50µs help-run watchdog
	// bound, so the same run must have counted stall alerts; the alert
	// ring is append-only (no fast-path flooding), so they stay visible.
	if os := srv.Manager().Observe(); os.StallAlerts == 0 {
		t.Error("stall regime with a 50µs help-run bound counted no stall alerts")
	} else if len(os.Alerts) == 0 {
		t.Error("stall alerts counted but the alert ring is empty")
	}
}

// TestTraceDisabled: without TraceSample the span ring is absent and
// the export degrades to a metadata-only document instead of failing.
func TestTraceDisabled(t *testing.T) {
	srv, lis := startServer(t, serve.Config{})
	c := dial(t, lis)
	if r := c.do(t, "SET", "k", "v"); r.Str != "OK" {
		t.Fatalf("SET = %+v", r)
	}
	if spans := srv.Spans(); spans != nil {
		t.Fatalf("Spans() = %d entries without TraceSample, want nil", len(spans))
	}
	hs := httptest.NewServer(srv.MetricsMux())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/debug/wftrace")
	if err != nil {
		t.Fatalf("GET /debug/wftrace: %v", err)
	}
	defer resp.Body.Close()
	var doc jsonTraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("trace without sampling contains non-metadata event %+v", ev)
		}
	}
}
