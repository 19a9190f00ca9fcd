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
// Chunks fit their size class (chunkLen): Go puts an 8-byte header on
// pointerful objects over 512 B, so a power of two bytes would round up
// one class (+12 to +19 %).
//
// The trade-off is retention granularity: the garbage collector frees a
// chunk only once every object in it is unreachable, so one interior
// pointer keeps the whole chunk, and everything its objects point at,
// alive. The callers' rule: a chunk whose objects hold pointers only
// points at objects whose own reach is bounded. Objects that long-lived
// state points at get arenas whose chunks hold no pointers (idem's
// value boxes; activeset's empty snapshots), rare objects that would
// keep a chunk current for long are not drawn from one, and objects
// drawn in lockstep, one pointing at the other, are one object (idem's
// descriptor boxes, activeset's one-member snapshots): as two, a chunk
// of the first spans chunks of the second once their lengths differ.
// What is left is bounded by the number of processes (each one's
// current chunks and what they reach) and, while locks are busy, by
// their non-empty snapshots (TestSoakHeapBounded).
//
// An Arena must only be used by a single goroutine at a time; arenas
// live in per-process env scratch slots (env.Scratcher) or in
// per-goroutine pooled handles, both of which guarantee that.
package arena

import (
	"math/bits"
	"unsafe"
)

// chunkObjs bounds the objects carved from each chunk: per-object
// cost stays negligible, and so does what one long-lived object pins.
const chunkObjs = 256

// chunkLen returns how many Ts a chunk of at most limit of them holds:
// as many as fit in the largest power of two bytes they reach, less 8,
// which fills a size class (up to 32 KB) or whole pages (above).
func chunkLen[T any](limit int) int {
	size := int(unsafe.Sizeof(*new(T)))
	if size == 0 {
		return limit
	}
	pow2 := 1 << (bits.Len(uint(limit*size)) - 1)
	return max((pow2-8)/size, 1)
}

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
		a.chunk = make([]T, chunkLen[T](chunkObjs))
		a.n = 0
	}
	p := &a.chunk[a.n]
	a.n++
	return p
}

// Slices is a bump allocator for small slices of type T. Like Arena's,
// its chunks are abandoned, never reused.
type Slices[T any] struct {
	chunk []T
	n     int
}

// sliceChunk bounds the backing-array length of slice chunks. A
// request for more than a quarter of it falls back to a direct make, so
// that a chunk always serves several requests: idem's log segments
// reach that only past a body's ~500th operation.
const sliceChunk = 1024

// Make returns a fresh zeroed slice of length n whose backing memory
// is never handed out twice.
func (s *Slices[T]) Make(n int) []T {
	return s.MakeCap(n)[:n]
}

// MakeCap returns a fresh zero-length slice with capacity n, whose
// backing memory, like Make's, is never handed out twice.
func (s *Slices[T]) MakeCap(n int) []T {
	if n > sliceChunk/4 {
		return make([]T, 0, n)
	}
	if s.n+n > len(s.chunk) {
		s.chunk = make([]T, chunkLen[T](sliceChunk))
		s.n = 0
	}
	out := s.chunk[s.n : s.n : s.n+n]
	s.n += n
	return out
}
