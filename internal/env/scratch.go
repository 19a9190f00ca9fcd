package env

// ScratchKey identifies a per-process scratch slot. Each internal
// package that amortizes allocations (internal/idem, internal/core,
// internal/activeset, internal/multiset, internal/table) owns one key
// and stores its typed allocation state there.
type ScratchKey int

const (
	// ScratchIdem holds *idem arenas (boxes, descriptors, execs, logs).
	ScratchIdem ScratchKey = iota
	// ScratchCore holds core's attempt arenas (descriptors, lock sets).
	ScratchCore
	// ScratchActiveSet holds active-set snapshot arenas.
	ScratchActiveSet
	// ScratchMultiSet holds multiset scratch buffers.
	ScratchMultiSet
	// ScratchTx holds the public API layer's arenas: operation frames,
	// Tx handles and transaction views.
	ScratchTx
	// ScratchTable holds the shard-table engine's word buffer for
	// encoding and decoding multi-word keys and values.
	ScratchTable
	// NumScratch is the number of scratch slots.
	NumScratch
)

// Scratcher is an optional extension of Env: an environment that
// carries per-process scratch state, letting algorithm packages
// amortize their hot-path allocations with process-private bump
// arenas. An environment that does not implement Scratcher (the
// deterministic simulator) simply causes callers to fall back to plain
// heap allocation, which is always correct.
//
// The returned pointer is private to the owning process: it must only
// be read or written by the goroutine driving this Env. Scratch state
// never changes step accounting — a bump allocation and a heap
// allocation both cost zero Env steps — so simulated schedules are
// unaffected by its presence or absence.
type Scratcher interface {
	Scratch(key ScratchKey) *any
}

// ScratchOf returns the scratch slot for key if e supports scratch
// state, else nil.
func ScratchOf(e Env, key ScratchKey) *any {
	if s, ok := e.(Scratcher); ok {
		return s.Scratch(key)
	}
	return nil
}
