// Package table is the shard-table engine behind the package's
// lock-sharded data structures (Map, Cache): a power-of-two shard array
// of open-addressed bucket regions held in idempotent cells, with the
// shared hashing, probing, seqlock versioning and critical-section
// budget math in one place. Structures layer their own semantics on top
// — the map adds fixed-capacity upsert/delete, the cache adds a CLOCK
// hand and a TTL column — but every one of them probes, hashes,
// versions and budgets identically, which is what makes multi-structure
// transactions composable: any set of shards from any engine-backed
// structures can be locked in one wait-free acquisition and mutated
// under one budget.
//
// The engine deliberately sits below the public typed-cell layer: it
// operates on internal/idem cells and runs, so it can be shared by the
// root package without an import cycle. The root package's Codec and
// ScalarCodec interfaces are structurally identical to the ones here,
// so codec values flow through unchanged.
package table

import (
	"wflocks/internal/env"
	"wflocks/internal/idem"
)

// Codec translates a T to and from its fixed-width word encoding. It is
// structurally identical to the root package's Codec, so any codec
// built there satisfies it directly.
type Codec[T any] interface {
	// Words is the fixed number of machine words an encoded T occupies.
	Words() int
	// Encode writes v's encoding into dst, which has Words() capacity.
	Encode(v T, dst []uint64)
	// Decode reconstructs a value from src, which holds Words() words.
	// It must not retain src: the engine decodes through a per-process
	// scratch buffer it reuses on the next call.
	Decode(src []uint64) T
}

// ScalarCodec is the optional single-word extension of Codec; cells
// whose codec implements it take an allocation-free fast path.
type ScalarCodec[T any] interface {
	Codec[T]
	// EncodeWord returns v's single-word encoding.
	EncodeWord(v T) uint64
	// DecodeWord reconstructs a value from its single-word encoding.
	DecodeWord(w uint64) T
}

// Bucket states (low two bits of a meta word). Empty terminates a
// probe; tombstones (left by Remove) keep probe chains intact and are
// reused by inserts.
const (
	Empty     uint64 = 0
	Full      uint64 = 1
	Tombstone uint64 = 2
	StateMask uint64 = 3
)

// CeilPow2 rounds n up to the next power of two (minimum 1).
func CeilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Budget is the one critical-section budget calculator every
// engine-backed structure derives its WithMaxCriticalSteps requirement
// from. A worst-case single-shard operation is a full-region probe —
// shardCapacity (rounded up to a power of two, as the constructors
// round) buckets, each costing one meta read plus keyWords key reads —
// followed by a bounded tail of non-probe work: one key write
// (keyWords), valueAccesses value reads/writes (valueWords each), and
// overhead single-word cell operations for the structure's bookkeeping
// (size and seqlock-version updates, result-cell routing, eviction,
// counters). The probe is the only term linear in the region size;
// everything a structure layers on top must be bounded-degree, which is
// why engine-backed structures never rehash.
func Budget(shardCapacity, keyWords, valueWords, valueAccesses, overhead int) int {
	return CeilPow2(shardCapacity)*(1+keyWords) + keyWords + valueAccesses*valueWords + overhead
}

// ProbeSteps is the cost of one worst-case probe alone: the linear term
// of Budget. Multi-key transactions use it to budget the re-probes that
// same-shard inserts can force.
func ProbeSteps(shardCapacity, keyWords int) int {
	return CeilPow2(shardCapacity) * (1 + keyWords)
}

// scratch returns n words of e's process-private scratch, or a fresh
// buffer when e carries none (the simulator, a nil e). Multi-word keys
// and values are encoded and decoded through it, so the hot paths —
// lock-free reads above all — allocate only what a Decode itself
// returns. The buffer is valid until the process's next engine call;
// codecs never retain it (see Codec).
func scratch(e env.Env, n int) []uint64 {
	p := env.ScratchOf(e, env.ScratchTable)
	if p == nil {
		return make([]uint64, n)
	}
	buf, _ := (*p).([]uint64)
	if len(buf) < n {
		buf = make([]uint64, n)
		*p = buf
	}
	return buf[:n]
}

// Shard is one shard of a table: a seqlock version cell, an entry
// count, and the bucket region. The lock guarding the shard lives with
// the owning structure (locks are a root-package type); the engine owns
// everything the lock protects.
type Shard struct {
	// Ver is the shard's seqlock version: mutations bump it to odd
	// before touching buckets and back to even after, so lock-free
	// readers (snapshots, iterators) can detect interference.
	Ver *idem.Cell
	// Size is the shard's live-entry count.
	Size *idem.Cell
	// Meta[i] holds bucket i's state in the low two bits and, for full
	// buckets, the key hash with those bits cleared — a cheap filter
	// that skips decoding non-matching keys during probes.
	Meta []*idem.Cell
	keys []*idem.Cell // capacity × keyWords, bucket-major
	vals []*idem.Cell // capacity × valueWords, bucket-major

	// Shards are stored contiguously in Table.Shards and different
	// shards are touched by different locks; pad each header to 128
	// bytes (two cache lines, the common prefetch pair) so a probe
	// walking one shard's Meta slice header never invalidates a
	// neighbor's. The fields above total 88 bytes.
	_ [40]byte
}

// Table is a shard array of open-addressed bucket regions over typed
// keys and values. It carries no locks and no policy: structures bring
// their own locking, eviction, budgets and result routing.
type Table[K comparable, V any] struct {
	kc Codec[K]
	vc Codec[V]
	ks ScalarCodec[K] // non-nil: allocation-free key path
	vs ScalarCodec[V] // non-nil: allocation-free value path
	kw int
	vw int

	seed      uint64
	shardMask uint64
	capMask   uint64
	capacity  int
	Shards    []Shard
}

// New builds a table with the given shard count and per-shard bucket
// capacity, both rounded up to powers of two. All buckets start Empty;
// key and value words start zeroed (never decoded while a bucket is not
// Full, so no codec invocation happens at construction).
func New[K comparable, V any](kc Codec[K], vc Codec[V], shards, capacity int, seed uint64) *Table[K, V] {
	shards = CeilPow2(shards)
	capacity = CeilPow2(capacity)
	t := &Table[K, V]{
		kc:        kc,
		vc:        vc,
		kw:        kc.Words(),
		vw:        vc.Words(),
		seed:      seed,
		shardMask: uint64(shards - 1),
		capMask:   uint64(capacity - 1),
		capacity:  capacity,
		Shards:    make([]Shard, shards),
	}
	if sc, ok := kc.(ScalarCodec[K]); ok && t.kw == 1 {
		t.ks = sc
	}
	if sc, ok := vc.(ScalarCodec[V]); ok && t.vw == 1 {
		t.vs = sc
	}
	for s := range t.Shards {
		sh := &t.Shards[s]
		sh.Ver = idem.NewCell(0)
		sh.Size = idem.NewCell(0)
		sh.Meta = make([]*idem.Cell, capacity)
		for i := range sh.Meta {
			sh.Meta[i] = idem.NewCell(Empty)
		}
		sh.keys = idem.NewCells(capacity*t.kw, nil)
		sh.vals = idem.NewCells(capacity*t.vw, nil)
	}
	return t
}

// ShardCount reports the number of shards (after rounding).
func (t *Table[K, V]) ShardCount() int { return len(t.Shards) }

// Capacity reports the bucket count per shard (after rounding).
func (t *Table[K, V]) Capacity() int { return t.capacity }

// KeyWords and ValueWords report the codec widths.
func (t *Table[K, V]) KeyWords() int { return t.kw }

// ValueWords reports the value codec's width in words.
func (t *Table[K, V]) ValueWords() int { return t.vw }

// Hash computes the key's 64-bit hash under the table's seed by
// chaining each encoded word through env.Mix (the SplitMix64
// finalizer). Shard selection uses the low bits and the home bucket the
// high bits, so the two are independent.
func (t *Table[K, V]) Hash(k K) uint64 { return t.HashIn(nil, k) }

// HashIn is Hash for a caller that holds a process environment: a
// multi-word key is encoded through e's scratch instead of a fresh
// buffer.
func (t *Table[K, V]) HashIn(e env.Env, k K) uint64 {
	if t.ks != nil {
		return env.Mix(t.seed, t.ks.EncodeWord(k))
	}
	buf := scratch(e, t.kw)
	t.kc.Encode(k, buf)
	h := t.seed
	for _, w := range buf {
		h = env.Mix(h, w)
	}
	return h
}

// ShardIndex picks the key's shard from its hash (low bits).
func (t *Table[K, V]) ShardIndex(h uint64) int { return int(h & t.shardMask) }

// Home picks the key's home bucket from its hash (high bits).
func (t *Table[K, V]) Home(h uint64) int { return int((h >> 32) & t.capMask) }

// Key reads bucket i's key inside a critical section.
func (t *Table[K, V]) Key(r *idem.Run, sh *Shard, i int) K {
	if t.ks != nil {
		return t.ks.DecodeWord(r.Read(sh.keys[i]))
	}
	buf := scratch(r.Env(), t.kw)
	r.ReadWords(sh.keys[i*t.kw:(i+1)*t.kw], buf)
	return t.kc.Decode(buf)
}

// setKey writes bucket i's key inside a critical section.
func (t *Table[K, V]) setKey(r *idem.Run, sh *Shard, i int, k K) {
	if t.ks != nil {
		r.Write(sh.keys[i], t.ks.EncodeWord(k))
		return
	}
	buf := scratch(r.Env(), t.kw)
	t.kc.Encode(k, buf)
	r.WriteWords(sh.keys[i*t.kw:(i+1)*t.kw], buf)
}

// Val reads bucket i's value inside a critical section.
func (t *Table[K, V]) Val(r *idem.Run, sh *Shard, i int) V {
	if t.vs != nil {
		return t.vs.DecodeWord(r.Read(sh.vals[i]))
	}
	buf := scratch(r.Env(), t.vw)
	r.ReadWords(sh.vals[i*t.vw:(i+1)*t.vw], buf)
	return t.vc.Decode(buf)
}

// SetVal writes bucket i's value inside a critical section.
func (t *Table[K, V]) SetVal(r *idem.Run, sh *Shard, i int, v V) {
	if t.vs != nil {
		r.Write(sh.vals[i], t.vs.EncodeWord(v))
		return
	}
	buf := scratch(r.Env(), t.vw)
	t.vc.Encode(v, buf)
	r.WriteWords(sh.vals[i*t.vw:(i+1)*t.vw], buf)
}

// Find probes sh's open-addressed region for k inside a critical
// section — the one probe loop behind every engine-backed structure.
// It returns the key's bucket index and found=true, or found=false with
// free the first reusable bucket (empty or tombstone; -1 if the region
// has none). Probing is linear from the home bucket and stops at the
// first empty bucket, which no insertion ever skips.
func (t *Table[K, V]) Find(r *idem.Run, sh *Shard, h uint64, home int, k K) (idx int, found bool, free int) {
	frag := h &^ StateMask
	free = -1
	n := t.capacity
	for j := 0; j < n; j++ {
		i := (home + j) & int(t.capMask)
		w := r.Read(sh.Meta[i])
		switch w & StateMask {
		case Empty:
			if free < 0 {
				free = i
			}
			return 0, false, free
		case Tombstone:
			if free < 0 {
				free = i
			}
		default: // full
			if w&^StateMask == frag && t.Key(r, sh, i) == k {
				return i, true, free
			}
		}
	}
	return 0, false, free
}

// Insert marks bucket i Full with (k, v) and increments the shard size,
// inside a critical section. i must be a reusable (empty or tombstone)
// bucket, normally Find's free result.
func (t *Table[K, V]) Insert(r *idem.Run, sh *Shard, i int, h uint64, k K, v V) {
	r.Write(sh.Meta[i], Full|(h&^StateMask))
	t.setKey(r, sh, i, k)
	t.SetVal(r, sh, i, v)
	r.Write(sh.Size, r.Read(sh.Size)+1)
}

// Remove tombstones bucket i and decrements the shard size, inside a
// critical section. Tombstones keep longer probe chains reachable and
// are reused by Insert.
func (t *Table[K, V]) Remove(r *idem.Run, sh *Shard, i int) {
	r.Write(sh.Meta[i], Tombstone)
	r.Write(sh.Size, r.Read(sh.Size)-1)
}

// BumpVer advances sh's seqlock version by one (2 ops). Mutating
// critical sections call it once before touching buckets (version goes
// odd) and once after (back to even).
func (t *Table[K, V]) BumpVer(r *idem.Run, sh *Shard) {
	r.Write(sh.Ver, r.Read(sh.Ver)+1)
}

// ReadStable runs read under sh's seqlock, outside any critical
// section: read is retried until it completes with the shard version
// even and unchanged, so everything it loaded belongs to one consistent
// instant. read must be idempotent across retries (reset its own
// accumulators on entry) and must only load cells, via LoadMeta,
// LoadKey, LoadVal and its own off-lock reads.
func (t *Table[K, V]) ReadStable(e env.Env, sh *Shard, yieldCPU func(), read func()) {
	for {
		v0 := sh.Ver.Load(e)
		if v0&1 == 1 {
			// A mutation is mid-application; its attempt finishes within
			// the wait-free step bound, so yield and retry.
			yieldCPU()
			continue
		}
		read()
		if sh.Ver.Load(e) == v0 {
			return
		}
	}
}

// FindStable probes for k under sh's seqlock without entering a
// critical section: the read-only analogue of Find, at the cost of a
// plain memory scan instead of a lock acquisition. It makes up to
// tries attempts to complete a probe with the shard version even and
// unchanged; done=true reports success, with the found value if any.
// done=false means writers kept the version moving and the caller
// should fall back to a locked probe (which is wait-free, so the
// fallback bounds the total work). The same argument that covers
// ReadStable covers this: a probe bracketed by equal even version
// reads observed the shard at one consistent instant, so the result
// linearizes there. Stale helpers cannot disturb it — their writes CAS
// against boxes that have since been replaced, and boxes are never
// recycled.
func (t *Table[K, V]) FindStable(e env.Env, sh *Shard, h uint64, home int, k K, tries int) (v V, ok, done bool) {
	for a := 0; a < tries; a++ {
		v0 := sh.Ver.Load(e)
		if v0&1 == 1 {
			continue
		}
		var val V
		i, found := t.LoadFind(e, sh, h, home, k)
		if found {
			val = t.LoadVal(e, sh, i)
		}
		if sh.Ver.Load(e) == v0 {
			return val, found, true
		}
	}
	return v, false, false
}

// LoadFind probes sh's region for k outside any critical section: Find
// over plain loads, and like every Load* only meaningful inside a
// version bracket that validates (FindStable, ReadStable, or a caller's
// own reads of sh.Ver around it). A full bucket matches when its stored
// key words equal k's encoding — the equality the hash already imposes,
// and for a pure codec the same one Find's decoded comparison decides —
// so a probe decodes nothing and allocates nothing.
func (t *Table[K, V]) LoadFind(e env.Env, sh *Shard, h uint64, home int, k K) (idx int, found bool) {
	frag := h &^ StateMask
	var enc []uint64
	if t.ks == nil {
		enc = scratch(e, t.kw)
		t.kc.Encode(k, enc)
	}
	for j := 0; j < t.capacity; j++ {
		i := (home + j) & int(t.capMask)
		w := t.LoadMeta(e, sh, i)
		switch w & StateMask {
		case Empty:
			return 0, false
		case Tombstone:
		default: // full
			if w&^StateMask == frag && t.keyIs(e, sh, i, k, enc) {
				return i, true
			}
		}
	}
	return 0, false
}

// keyIs reports whether bucket i's key words, loaded outside any
// critical section, are k's encoding (enc, for a multi-word key).
func (t *Table[K, V]) keyIs(e env.Env, sh *Shard, i int, k K, enc []uint64) bool {
	if t.ks != nil {
		return sh.keys[i].Load(e) == t.ks.EncodeWord(k)
	}
	for w, c := range sh.keys[i*t.kw : (i+1)*t.kw] {
		if c.Load(e) != enc[w] {
			return false
		}
	}
	return true
}

// LoadMeta reads bucket i's meta word outside any critical section.
func (t *Table[K, V]) LoadMeta(e env.Env, sh *Shard, i int) uint64 {
	return sh.Meta[i].Load(e)
}

// LoadKey reads bucket i's key outside any critical section; only
// meaningful under ReadStable or at quiescence.
func (t *Table[K, V]) LoadKey(e env.Env, sh *Shard, i int) K {
	if t.ks != nil {
		return t.ks.DecodeWord(sh.keys[i].Load(e))
	}
	buf := scratch(e, t.kw)
	idem.LoadWords(e, sh.keys[i*t.kw:(i+1)*t.kw], buf)
	return t.kc.Decode(buf)
}

// LoadVal reads bucket i's value outside any critical section; only
// meaningful under ReadStable or at quiescence.
func (t *Table[K, V]) LoadVal(e env.Env, sh *Shard, i int) V {
	if t.vs != nil {
		return t.vs.DecodeWord(sh.vals[i].Load(e))
	}
	buf := scratch(e, t.vw)
	idem.LoadWords(e, sh.vals[i*t.vw:(i+1)*t.vw], buf)
	return t.vc.Decode(buf)
}

// LoadSize reads sh's entry count outside any critical section.
func (t *Table[K, V]) LoadSize(e env.Env, sh *Shard) uint64 {
	return sh.Size.Load(e)
}

// ShardProbeStats summarizes one shard's occupancy and probe-chain
// shape, recovered from the meta words alone.
type ShardProbeStats struct {
	// Full and Tombstones count buckets in each non-empty state;
	// Capacity is the region size, so Full/Capacity is the load factor.
	Full       int
	Tombstones int
	Capacity   int
	// MaxProbe and SumProbe describe the displacement of full buckets
	// from their home position — how long probes for present keys run.
	// SumProbe/Full is the mean lookup probe length minus one.
	MaxProbe int
	SumProbe int
}

// ProbeStats scans sh's meta words outside any critical section and
// reports its occupancy and probe displacements. Each full bucket's
// home position is recovered from the hash fragment stored in its meta
// word (Home uses bits ≥ 32, which the state bits never touch), so the
// scan needs no key decoding and no lock. Like the manager's counters
// it is exact at quiescence and momentarily skewed under live traffic —
// a mid-scan mutation can double-count or miss a bucket, never fault.
func (t *Table[K, V]) ProbeStats(e env.Env, sh *Shard) ShardProbeStats {
	st := ShardProbeStats{Capacity: t.capacity}
	for i := 0; i < t.capacity; i++ {
		w := sh.Meta[i].Load(e)
		switch w & StateMask {
		case Full:
			st.Full++
			d := (i - t.Home(w)) & int(t.capMask)
			st.SumProbe += d
			if d > st.MaxProbe {
				st.MaxProbe = d
			}
		case Tombstone:
			st.Tombstones++
		}
	}
	return st
}
