package serve

import (
	"encoding/json"
	"io"

	"wflocks"
	"wflocks/internal/obs"
)

// Chrome trace-event export: the request-span flight recorder and the
// lock-level flight recorder rendered as one Chrome trace-event JSON
// document, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The document uses two synthetic processes:
//
//   - pid 1 "requests": one thread lane per slab slot (a slot holds
//     exactly one request at a time, so slices on a lane never overlap
//     and nest soundly). Each request renders as a whole-pipeline slice
//     named by its op, with nested "wait" (admission → execution: the
//     time spent behind the connection's earlier requests) and "exec"
//     (backend call) slices. Args carry the request id, conn, key hash
//     and — the correlation key — the shard lock id.
//
//   - pid 2 "lock attempts": one thread lane per lock-layer process id.
//     Help runs render as slices spanning their recorded wall duration;
//     starts, delay points, fast paths, wins, loses and watchdog alerts
//     render as instants. Args carry the lock id.
//
// Finding "why did this GET take 3ms" is a join by lock id: the GET's
// slice in pid 1 names lock N, and pid 2 shows who helped past a stall
// or burned delay steps on lock N in the same interval.

// traceEvent is one Chrome trace-event entry (the subset of the format
// the export uses; ts and dur are microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the trace-event file shape ("JSON Object Format").
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// Trace-event pid assignments.
const (
	tracePidRequests = 1
	tracePidLocks    = 2
)

// usec converts UnixNano to trace-event microseconds.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// spanTraceEvents renders one request span as its whole-pipeline slice
// plus nested stage slices (stages the request never reached are
// skipped).
func spanTraceEvents(out []traceEvent, sp obs.Span) []traceEvent {
	if sp.ReadNS == 0 || sp.WriteNS < sp.ReadNS {
		return out
	}
	args := map[string]any{
		"req":  sp.ID,
		"conn": sp.Conn,
		"lock": sp.LockID,
		"key":  sp.KeyHash,
	}
	out = append(out, traceEvent{
		Name: sp.Op, Ph: "X",
		Ts: usec(sp.ReadNS), Dur: usec(sp.WriteNS - sp.ReadNS),
		Pid: tracePidRequests, Tid: sp.Slot, Args: args,
	})
	if sp.AdmitNS != 0 && sp.ExecNS >= sp.AdmitNS {
		out = append(out, traceEvent{
			Name: "wait", Ph: "X",
			Ts: usec(sp.AdmitNS), Dur: usec(sp.ExecNS - sp.AdmitNS),
			Pid: tracePidRequests, Tid: sp.Slot,
			Args: map[string]any{"req": sp.ID},
		})
	}
	if sp.ExecNS != 0 && sp.DoneNS >= sp.ExecNS {
		out = append(out, traceEvent{
			Name: "exec", Ph: "X",
			Ts: usec(sp.ExecNS), Dur: usec(sp.DoneNS - sp.ExecNS),
			Pid: tracePidRequests, Tid: sp.Slot,
			Args: map[string]any{"req": sp.ID, "lock": sp.LockID},
		})
	}
	return out
}

// lockTraceEvents renders one flight-recorder (or alert-ring) event.
// Help runs know their wall duration, so they render as slices ending
// at their recorded timestamp; everything else is an instant.
func lockTraceEvents(out []traceEvent, ev wflocks.TraceEvent) []traceEvent {
	ns := ev.Time.UnixNano()
	args := map[string]any{"lock": ev.LockID, "seq": ev.Seq}
	switch ev.Kind {
	case "help":
		return append(out, traceEvent{
			Name: "help", Ph: "X",
			Ts: usec(ns - int64(ev.Value)), Dur: usec(int64(ev.Value)),
			Pid: tracePidLocks, Tid: ev.Pid, Args: args,
		})
	case "delay":
		args["steps"] = ev.Value
	case "start":
		args["locks"] = ev.Value
	case "alert-delay":
		args["steps"] = ev.Value
	case "alert-help":
		args["ns"] = ev.Value
	}
	return append(out, traceEvent{
		Name: ev.Kind, Ph: "i",
		Ts:  usec(ns),
		Pid: tracePidLocks, Tid: ev.Pid, S: "t", Args: args,
	})
}

// writeTrace renders spans plus the lock snapshot's events and alerts
// as a Chrome trace-event JSON document. Deterministic given its
// inputs (map args marshal with sorted keys), which is what the golden
// test pins.
func writeTrace(w io.Writer, spans []obs.Span, os wflocks.ObsSnapshot) error {
	doc := traceDoc{
		DisplayTimeUnit: "ms",
		TraceEvents: []traceEvent{
			{Name: "process_name", Ph: "M", Pid: tracePidRequests,
				Args: map[string]any{"name": "requests (slab slots)"}},
			{Name: "process_name", Ph: "M", Pid: tracePidLocks,
				Args: map[string]any{"name": "lock attempts (pids)"}},
		},
	}
	for _, sp := range spans {
		doc.TraceEvents = spanTraceEvents(doc.TraceEvents, sp)
	}
	for _, ev := range os.Events {
		doc.TraceEvents = lockTraceEvents(doc.TraceEvents, ev)
	}
	for _, ev := range os.Alerts {
		doc.TraceEvents = lockTraceEvents(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteTrace exports the server's current observability window — the
// request-span ring joined with the lock manager's flight recorder and
// alert ring — as Chrome trace-event JSON (see the package comment at
// the top of this file for the layout). Served on /debug/wftrace by
// MetricsMux; cmd/wfload's -tracefile writes the same document.
// Without Config.TraceSample the document carries only metadata.
func (s *Server) WriteTrace(w io.Writer) error {
	return writeTrace(w, s.Spans(), s.mgr.Observe())
}
