package obs

import (
	"sort"
	"sync"
)

// Span is one request's stage-timestamped trip through a serve
// pipeline: read/parse off the wire, slab admission, the wait behind
// the connection's earlier requests, execution on the connection's
// writer (with the backend critical section inside), and the writer
// flush that puts the response back on the wire. All timestamps
// are wall-clock UnixNano; a zero timestamp means the request never
// reached that stage (e.g. a parse error retires the slot early).
//
// The span's correlation keys tie it to the lock layer: LockID is the
// backend shard lock the keyed operation ran under, so a span can be
// joined against the flight recorder's delay/help/win events for the
// same lock over the same interval — the causal answer to "why did
// this request wait".
//
// A span is stamped in place inside a serve slab slot by plain stores:
// each stage's writes are ordered by the pipeline's own happens-before
// edges (slot free-list → reader → pending channel → writer), so no
// stage races another and the stamping costs no atomics.
type Span struct {
	// ID is the request's serve-assigned sequence number.
	ID uint64
	// Conn identifies the connection the request arrived on.
	Conn uint64
	// Slot is the slab slot the request occupied (the trace view's
	// thread lane: a slot holds one request at a time).
	Slot int
	// Op is the request verb ("GET", "SET", ...).
	Op string
	// LockID is the backend shard lock covering the request's key, or
	// -1 when the backend has no lock IDs (mutex baseline) or the
	// request carried no key.
	LockID int
	// KeyHash is the request key's hash (the shard selector), 0 when
	// keyless.
	KeyHash uint64

	// Stage timestamps, UnixNano, in pipeline order.
	ReadNS  int64 // request parsed off the wire
	AdmitNS int64 // slab slot acquired (admission gate passed)
	ExecNS  int64 // backend call started on the writer (critical section entry)
	DoneNS  int64 // backend call returned, response ready
	WriteNS int64 // response flushed to the connection writer
}

// SpanRing is a fixed-size flight recorder of completed request spans:
// the writer side copies a finished span by value into a preallocated
// slot under a mutex (publication is once per request, on the
// connection-writer path where a lock is noise against the socket
// write), so steady-state recording allocates nothing.
type SpanRing struct {
	mu    sync.Mutex
	spans []Span
	next  uint64
}

// NewSpanRing creates a span recorder holding the most recent capacity
// spans (rounded up to a power of two, minimum 64).
func NewSpanRing(capacity int) *SpanRing {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &SpanRing{spans: make([]Span, n)}
}

// Cap reports the ring capacity.
func (r *SpanRing) Cap() int { return len(r.spans) }

// Publish records one completed span.
func (r *SpanRing) Publish(s *Span) {
	r.mu.Lock()
	r.spans[r.next&uint64(len(r.spans)-1)] = *s
	r.next++
	r.mu.Unlock()
}

// Snapshot returns the recorded spans ordered by request ID.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	n := r.next
	if n > uint64(len(r.spans)) {
		n = uint64(len(r.spans))
	}
	out := make([]Span, 0, n)
	for i := range r.spans {
		if r.spans[i].ReadNS != 0 {
			out = append(out, r.spans[i])
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
