// Package arena provides process-private bump allocators that amortize
// hot-path allocations without ever recycling memory.
//
// The idempotence construction (internal/idem) and the lock protocol
// (internal/core) both rely on pointer freshness: an install CAS on a
// cell, or a helper's stale read of a published descriptor, is only
// safe because a pointer handed out once is never handed out again
// while any process could still hold the old reference (the ABA
// argument in idem's package docs). That rules out free-lists and
// sync.Pool for anything published to helpers. A bump arena keeps the
// invariant trivially — objects are carved out of a chunk in order and
// the chunk is abandoned when full, never rewound — while cutting the
// allocator cost to one heap allocation per chunk instead of one per
// object.
//
// The trade-off is retention granularity: the garbage collector frees a
// chunk only once every object in it is unreachable, so one interior
// pointer keeps the whole chunk, and everything its objects point at,
// alive. Fresh is not immortal, and the callers keep it that way with
// one rule: a chunk whose objects hold pointers must only point at
// objects whose own reach is bounded. Objects that long-lived state
// points at get arenas of their own whose chunks hold no pointers
// (idem's committed value boxes, which live cells point at; activeset's
// empty snapshots, which idle locks point at); a log records an
// operation's outcome by pointing at such a value box and never at a
// descriptor, so a log chunk reaches no earlier attempt (idem's log
// slots); and lists that are private to an attempt live in reused
// buffers, not in a chunk that stays current for as long as it takes
// to fill. Measured on a structure kept alive while one goroutine
// drives it for 1M operations, the live heap of every structure stays
// flat at 0.1-0.5 MB (TestSoakHeapBounded), where it used to grow by
// 0.2-5 KB per operation. What is left is bounded by the number of
// processes (each one's current chunks and what they reach) and, while
// locks are busy, by their non-empty snapshots.
//
// An Arena must only be used by a single goroutine at a time; arenas
// live in per-process env scratch slots (env.Scratcher) or in
// per-goroutine pooled handles, both of which guarantee that.
package arena

// chunkObjs is the number of objects carved from each chunk. 256 keeps
// per-object amortized cost negligible while bounding the memory a
// single long-lived object can pin to its chunk and what the chunk
// reaches.
const chunkObjs = 256

// Arena is a bump allocator for values of type T. The zero value is
// ready to use.
type Arena[T any] struct {
	chunk []T
	n     int
}

// New returns a pointer to a fresh zero T. The pointer has never been
// returned before by any Arena and never will be again.
func (a *Arena[T]) New() *T {
	if a.n == len(a.chunk) {
		a.chunk = make([]T, chunkObjs)
		a.n = 0
	}
	p := &a.chunk[a.n]
	a.n++
	return p
}

// Slices is a bump allocator for small slices of type T. Like Arena,
// backing memory is abandoned, never reused, so a returned slice stays
// valid (and private to its requester) forever.
type Slices[T any] struct {
	chunk []T
	n     int
}

// sliceChunk is the backing-array length for slice chunks. A request
// for more than a quarter of it falls back to a direct make, so that a
// chunk always serves several requests. The callers' steady-state
// requests are far below that: lock sets of a few entries, and idem's
// log segments, which start at 16 slots and double only as a
// body keeps running — the fallback is for the segments past the
// ~500th operation of a genuinely long body, one allocation each.
const sliceChunk = 1024

// Make returns a fresh zeroed slice of length n whose backing memory
// is never handed out twice.
func (s *Slices[T]) Make(n int) []T {
	return s.MakeCap(n)[:n]
}

// MakeCap returns a fresh zero-length slice with capacity n; appending
// up to n elements stays within the reserved region. Like Make, the
// backing memory is never handed out twice.
func (s *Slices[T]) MakeCap(n int) []T {
	if n > sliceChunk/4 {
		return make([]T, 0, n)
	}
	if s.n+n > len(s.chunk) {
		s.chunk = make([]T, sliceChunk)
		s.n = 0
	}
	out := s.chunk[s.n : s.n : s.n+n]
	s.n += n
	return out
}
