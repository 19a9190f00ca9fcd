package wflocks

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"wflocks/internal/idem"
)

// Multi-key transactions: Atomic and AtomicAll, documented on Atomic
// and in the package doc, run one frame, txnFrame (see mapframe.go).

// MapTxn is the transaction view Atomic hands its body: typed
// Get/Put/Delete over the transaction's declared keys, all inside one
// multi-lock critical section. A fresh view is created for every
// (re-)execution of the body — helpers re-executing a stalled
// transaction each get their own — so the view carries per-execution
// probe memoization without breaking idempotence.
//
// Only declared keys are addressable: Get, Put or Delete on a key that
// was not in Atomic's key set panics (the key's shard lock is not
// held, so touching it could never be atomic).
type MapTxn[K comparable, V any] struct {
	mp    *Map[K, V]
	tx    *Tx
	prep  *mapTxnPrep[K, V]
	slots []txnSlot
	// full, when non-nil (Map.Atomic), is the frame's result word: a
	// Put that found its shard at capacity sets mresFull there so the
	// caller can report ErrMapFull.
	full    *atomic.Uint32
	slotBuf [txnInline]txnSlot
}

// txnSlot memoizes one declared key's probe inside one execution of the
// body: probing is the budget's linear term, so each key pays it once
// and subsequent operations reuse the located bucket.
type txnSlot struct {
	probed bool
	found  bool
	idx    int32 // bucket index when found
	free   int32 // first reusable bucket when not found (-1: shard full)
}

// txnRoute is one declared key's precomputed routing.
type txnRoute struct {
	h        uint64
	si, home int32
}

// mapTxnPrep is the immutable, execution-independent part of a
// transaction: deduplicated keys with their routing and the declared
// op budget. It is computed once per Atomic call (or once per Region)
// and shared by every execution of the body.
type mapTxnPrep[K comparable, V any] struct {
	mp     *Map[K, V]
	keys   []K // declaration-ordered deduplicated keys, for MapTxn.Keys
	routes []txnRoute
	index  map[K]int // key → slot, built past a size threshold (else nil)
	ops    int

	// The slices' storage while they fit; longer ones move to the heap.
	keyBuf   [txnInline]K
	routeBuf [txnInline]txnRoute
}

// txnInline is the key count a transaction's slices hold inside its
// frame and view without a heap allocation.
const txnInline = 4

// txnIndexThreshold is the key count past which prepare switches from
// linear scans to a map index for dedupe and slot resolution: small
// transactions (the common transfer/swap shapes) stay allocation-lean,
// while GetBatch-sized chunks resolve keys in O(1) — important because
// helpers re-executing a body pay slot lookups again.
const txnIndexThreshold = 8

// prepare fills prep, in place, with a transaction's routing: keys
// deduplicated by equality (runTxn collects their shards' locks and
// sorts them). The op budget gives each distinct key one full
// single-shard budget (whose bookkeeping headroom already covers the
// key's share of seqlock bumps and result routing, exactly as in the
// single-key operations), plus one extra probe per additional key
// sharing a shard — a same-shard insert can invalidate a sibling key's
// memoized free bucket, forcing a re-probe.
func (mp *Map[K, V]) prepare(prep *mapTxnPrep[K, V], keys []K) {
	prep.mp, prep.keys, prep.routes = mp, prep.keyBuf[:0], prep.routeBuf[:0]
	if len(keys) > txnIndexThreshold {
		prep.index = make(map[K]int, len(keys))
	}
	for _, k := range keys {
		if _, dup := prep.index[k]; dup || prep.index == nil && slices.Contains(prep.keys, k) {
			continue
		}
		if prep.index != nil {
			prep.index[k] = len(prep.keys)
		}
		h := mp.eng.Hash(k)
		prep.keys = append(prep.keys, k)
		prep.routes = append(prep.routes, txnRoute{h, int32(mp.eng.ShardIndex(h)), int32(mp.eng.Home(h))})
	}
	nk, ns := len(prep.keys), 0
	for i := range prep.routes {
		if prep.firstOnShard(i) {
			ns++
		}
	}
	prep.ops = nk*mp.opBudget + (nk-ns)*mp.probeCost
}

// firstOnShard reports whether key i is the first declared key on its
// shard.
func (prep *mapTxnPrep[K, V]) firstOnShard(i int) bool {
	for _, r := range prep.routes[:i] {
		if r.si == prep.routes[i].si {
			return false
		}
	}
	return true
}

// view creates a fresh per-execution transaction view, drawn from the
// executing process's arenas as a Tx is.
func (prep *mapTxnPrep[K, V]) view(tx *Tx, full *atomic.Uint32) *MapTxn[K, V] {
	t := runNew[MapTxn[K, V]](tx.run)
	t.mp, t.tx, t.prep, t.full = prep.mp, tx, prep, full
	t.slots = append(t.slotBuf[:0], make([]txnSlot, len(prep.routes))...)
	return t
}

// Atomic runs fn as one atomic transaction over the declared keys: the
// involved shard locks (deduplicated, sorted) are acquired in a single
// wait-free multi-lock attempt, fn's Get/Put/Delete calls on the view
// execute inside that one critical section, and the whole body commits
// atomically — concurrent readers and transactions observe all of its
// effects or none. This is the general form of the paper's L-lock
// acquisition: a transaction over keys spanning s shards pays the
// 1/(κs) per-attempt success probability and the O(κ²L²T) step bound.
//
// Requirements, validated per call: the distinct shard count must be
// within the manager's WithMaxLocks bound L (ErrTooManyLocks) and the
// transaction budget — MapAtomicSteps-style, one single-shard budget
// per distinct key — within WithMaxCriticalSteps (ErrMaxOpsExceeded).
// An empty key set reports ErrNoLocks.
//
// fn is a critical-section body: deterministic given the view's
// results, no acquisitions or other shared-memory access of its own,
// and safe for concurrent re-execution by helpers. Route results out
// through fresh cells (written via the view's Tx), never through
// closure captures, and capture only data that stays immutable even
// after Atomic returns — a straggling helper may still be re-executing
// the body, so iterating a key buffer the caller reuses between calls
// is a determinism violation; iterate the view's Keys() instead.
//
// The declared budget covers, per named key: its probe, one Get, one
// Put (or Delete), and — for keys sharing a shard — one re-probe (a
// same-shard insert can take a sibling's memoized free bucket). That
// is the natural read-the-keys-then-write-the-keys shape. Bodies that
// interleave many extra rounds of Gets and inserting Puts over the
// same full shard can exceed the budget, which panics with the idem
// layer's exceeded-maxOps message (the same contract as any
// over-budget critical section); keep transaction bodies to the
// declared shape. If any Put found its shard at capacity,
// Atomic reports ErrMapFull after the transaction commits (the body's
// other effects stand — a full shard aborts nothing by itself; bodies
// that need all-or-nothing inserts should Get first and write only on
// the outcomes they accept).
func (mp *Map[K, V]) Atomic(keys []K, fn func(*MapTxn[K, V])) error {
	return mp.AtomicCtx(context.Background(), keys, fn)
}

// AtomicCtx is Atomic with cancellation: between failed acquisition
// attempts it checks ctx and returns an error wrapping ErrCanceled once
// ctx is done. The body never runs after AtomicCtx returns a
// cancellation error; a nil (or ErrMapFull) return means exactly one
// winning attempt committed it.
func (mp *Map[K, V]) AtomicCtx(ctx context.Context, keys []K, fn func(*MapTxn[K, V])) error {
	p := mp.m.Acquire()
	defer mp.m.Release(p)
	f := frameFor[mapTxnFrame[K, V]](p)
	mp.prepare(&f.rg.prep, keys)
	f.fn, f.body = fn, f
	regions := [1]TxnRegion{&f.rg}
	if err := mp.m.runTxn(ctx, p, &f.txnFrame, regions[:]); err != nil {
		return err
	}
	if f.resBits.Load()&mresFull != 0 {
		return fmt.Errorf("%w: a transactional Put found its shard at capacity %d", ErrMapFull, mp.eng.Capacity())
	}
	return nil
}

// mapTxnFrame is Map.Atomic's txnFrame, its one region and typed body.
type mapTxnFrame[K comparable, V any] struct {
	txnFrame
	rg MapRegion[K, V]
	fn func(*MapTxn[K, V])
}

func (f *mapTxnFrame[K, V]) runTxn(tx *Tx) { f.fn(f.rg.prep.view(tx, &f.resBits)) }

// Region declares a transaction's footprint on this map — the given
// keys, their deduplicated shards, and the op budget — for composition
// into a multi-structure transaction via AtomicAll. Inside the
// transaction body, View binds the region to the running critical
// section and yields the same typed MapTxn view Atomic provides.
func (mp *Map[K, V]) Region(keys ...K) *MapRegion[K, V] {
	rg := &MapRegion[K, V]{}
	mp.prepare(&rg.prep, keys)
	return rg
}

// MapRegion is a Map's declared footprint in a multi-structure
// transaction; create one with Map.Region and bind it per execution
// with View. A region is immutable and may be reused across
// transactions with the same key set.
type MapRegion[K comparable, V any] struct {
	prep mapTxnPrep[K, V]
}

// View binds the region to an executing transaction body, returning a
// fresh typed view. Call it inside the AtomicAll body, once per
// execution — views carry per-execution probe memoization and must not
// be shared across executions (helpers re-executing the body each
// create their own).
//
// A view from a region has no ErrMapFull back-channel: Put's error
// return is the body's to handle (route outcomes through your own
// cells if the caller needs them).
func (rg *MapRegion[K, V]) View(tx *Tx) *MapTxn[K, V] { return rg.prep.view(tx, nil) }

func (rg *MapRegion[K, V]) txnAdd(f *txnFrame) *Manager {
	mp := rg.prep.mp
	for i, r := range rg.prep.routes {
		if rg.prep.firstOnShard(i) {
			f.locks = append(f.locks, mp.locks[r.si])
			f.vers = append(f.vers, mp.eng.Shards[r.si].Ver)
		}
	}
	f.ops += rg.prep.ops
	return mp.m
}

// TxnRegion is a structure's declared footprint in a multi-structure
// transaction: its locks, op budget and seqlock cells. Regions are
// created by the structures themselves (Map.Region); the interface's
// method is unexported because a region's internals are engine-level.
type TxnRegion interface {
	// txnAdd adds the region's shard locks, seqlock version cells and
	// op budget to f, and reports the region's manager.
	txnAdd(f *txnFrame) *Manager
}

// txnFrame is the transaction frame AtomicAll and Map.Atomic run (see
// mapframe.go): the lock set, the seqlock version cells each run bumps
// around the body, the body, and Map.Atomic's full bit.
type txnFrame struct {
	locks   []*Lock
	vers    []*idem.Cell
	ops     int
	body    txnBody
	resBits atomic.Uint32
	lockBuf [txnInline]*Lock
	verBuf  [txnInline]*idem.Cell
}

// txnBody is what a txnFrame runs between its version bumps.
type txnBody interface{ runTxn(tx *Tx) }

// txnFunc is AtomicAll's body as a txnBody.
type txnFunc func(*Tx)

func (fn txnFunc) runTxn(tx *Tx) { fn(tx) }

// RunThunk implements idem.Thunk. Seqlock versions go odd before any
// bucket is touched and even after the last effect, so lock-free
// snapshots never observe a half-applied transaction.
func (f *txnFrame) RunThunk(r *idem.Run) {
	for _, v := range f.vers {
		r.Write(v, r.Read(v)+1)
	}
	f.body.runTxn(newTx(r))
	for _, v := range f.vers {
		r.Write(v, r.Read(v)+1)
	}
}

// runTxn adds regions to f, validates the union and runs f under p
// until an attempt wins.
func (m *Manager) runTxn(ctx context.Context, p *Process, f *txnFrame, regions []TxnRegion) error {
	f.locks, f.vers = f.lockBuf[:0], f.verBuf[:0]
	for _, rg := range regions {
		if rg.txnAdd(f) != m {
			return fmt.Errorf("%w: AtomicAll region not on this manager", ErrCrossManager)
		}
	}
	slices.SortFunc(f.locks, byID)
	for i := 1; i < len(f.locks); i++ {
		// Locks are per-structure and a region's are distinct, so a
		// repeat means two regions cover the same shard: their
		// independent probe memos could corrupt it.
		if f.locks[i] == f.locks[i-1] {
			return fmt.Errorf("%w: lock %d appears in two regions", ErrOverlappingRegions, f.locks[i].ID())
		}
	}
	if err := m.validateCall(f.locks, f.ops); err != nil {
		return err
	}
	_, err := m.run(ctx, p, f.locks, f.ops, f)
	return err
}

// byID orders locks by ID, the canonical acquisition order of every
// multi-lock section (slices.SortFunc sorts short sets by insertion).
func byID(a, b *Lock) int { return a.ID() - b.ID() }

// AtomicAll runs fn as one atomic transaction spanning every region —
// regions may come from different structures (several Maps) as long as
// all live on the same Manager m. The union of the regions' shard
// locks is deduplicated, sorted and acquired in a single wait-free
// multi-lock attempt; fn runs as one critical section and commits
// atomically across all the structures. Within fn, bind each region
// with its View to operate on its keys.
//
// Validation mirrors Atomic: the distinct lock count must be within
// WithMaxLocks (ErrTooManyLocks), the summed budget within
// WithMaxCriticalSteps (ErrMaxOpsExceeded), and every region must
// belong to m (ErrCrossManager) — locks from different managers cannot
// be acquired atomically. Two regions must not share a shard of the
// same structure (ErrOverlappingRegions): each region's view memoizes
// its own probes, so overlapping views of one bucket region could
// both claim the same free bucket. Put keys that share a map in one
// Region — its view handles same-shard interactions correctly.
func AtomicAll(m *Manager, regions []TxnRegion, fn func(*Tx)) error {
	return AtomicAllCtx(context.Background(), m, regions, fn)
}

// AtomicAllCtx is AtomicAll with cancellation, sharing the DoCtx retry
// loop: it returns an error wrapping ErrCanceled once ctx is done, and
// the body never runs after that.
func AtomicAllCtx(ctx context.Context, m *Manager, regions []TxnRegion, fn func(*Tx)) error {
	p := m.Acquire()
	defer m.Release(p)
	f := frameFor[txnFrame](p)
	f.body = txnFunc(fn)
	return m.runTxn(ctx, p, f, regions)
}

// slot resolves a key to its declared index, panicking for undeclared
// keys (their shard locks are not held).
func (t *MapTxn[K, V]) slot(k K) int {
	if t.prep.index != nil {
		if i, ok := t.prep.index[k]; ok {
			return i
		}
	} else if i := slices.Index(t.prep.keys, k); i >= 0 {
		return i
	}
	panic("wflocks: MapTxn: key not in the transaction's declared key set")
}

// probe memoizes the key's bucket location for this execution.
func (t *MapTxn[K, V]) probe(i int) *txnSlot {
	s := &t.slots[i]
	if !s.probed {
		r := &t.prep.routes[i]
		idx, found, free := t.mp.eng.Find(t.tx.run, &t.mp.eng.Shards[r.si], r.h, int(r.home), t.prep.keys[i])
		*s = txnSlot{probed: true, found: found, idx: int32(idx), free: int32(free)}
	}
	return s
}

// invalidateFree drops sibling keys' memoized probes after an insert
// filled bucket `filled` of shard si: exactly the siblings that
// remembered that bucket as their reusable slot must re-probe. Located
// (found) keys keep their buckets — inserts never move live entries —
// and siblings holding a different free bucket keep theirs, which is
// what bounds re-probes to at most one per same-shard sibling in the
// budgeted Get-round-then-Put-round pattern.
func (t *MapTxn[K, V]) invalidateFree(si, filled int32, self int) {
	for i := range t.slots {
		if i != self && t.prep.routes[i].si == si &&
			t.slots[i].probed && !t.slots[i].found && t.slots[i].free == filled {
			t.slots[i].probed = false
		}
	}
}

// Get reports the value the transaction observes for k — including the
// transaction's own earlier writes.
func (t *MapTxn[K, V]) Get(k K) (V, bool) {
	i := t.slot(k)
	s := t.probe(i)
	if !s.found {
		var zero V
		return zero, false
	}
	return t.mp.eng.Val(t.tx.run, &t.mp.eng.Shards[t.prep.routes[i].si], int(s.idx)), true
}

// Put stores v for k within the transaction, inserting or overwriting.
// It returns ErrMapFull when k's shard has no free bucket; the
// transaction's other effects are unaffected (see Atomic on
// all-or-nothing patterns).
func (t *MapTxn[K, V]) Put(k K, v V) error {
	i := t.slot(k)
	s := t.probe(i)
	r := &t.prep.routes[i]
	sh := &t.mp.eng.Shards[r.si]
	if s.found {
		t.mp.eng.SetVal(t.tx.run, sh, int(s.idx), v)
		return nil
	}
	if s.free < 0 {
		if t.full != nil {
			t.full.Store(mresFull)
		}
		return fmt.Errorf("%w: shard %d at capacity %d", ErrMapFull, r.si, t.mp.eng.Capacity())
	}
	t.mp.eng.Insert(t.tx.run, sh, int(s.free), r.h, t.prep.keys[i], v)
	s.found, s.idx = true, s.free
	t.invalidateFree(r.si, s.idx, i)
	return nil
}

// Delete removes k within the transaction, reporting whether it was
// present (to the transaction's view, own writes included).
func (t *MapTxn[K, V]) Delete(k K) bool {
	i := t.slot(k)
	s := t.probe(i)
	if !s.found {
		return false
	}
	si := t.prep.routes[i].si
	t.mp.eng.Remove(t.tx.run, &t.mp.eng.Shards[si], int(s.idx))
	s.found, s.free = false, s.idx
	// Same-shard siblings that probed a full region (free = -1) can use
	// the freed bucket: a probe that found no reusable bucket covered
	// the whole region, so every chain reaches this one. Without this a
	// Delete-then-Put pair would spuriously report ErrMapFull.
	for j := range t.slots {
		if j != i && t.prep.routes[j].si == si &&
			t.slots[j].probed && !t.slots[j].found && t.slots[j].free < 0 {
			t.slots[j].free = s.idx
		}
	}
	return true
}

// Keys returns the transaction's declared key set, deduplicated, in
// declaration order. Bodies should iterate this slice rather than a
// captured variable: everything a body captures must stay immutable
// even after Atomic returns (a straggling helper may still be
// re-executing the body), and Keys is backed by the transaction's own
// immutable preparation. Callers must not modify the returned slice.
func (t *MapTxn[K, V]) Keys() []K { return t.prep.keys }

// Tx exposes the underlying critical-section handle, for routing
// results out through the caller's own cells:
//
//	ok := wflocks.NewBoolCell(false)
//	mp.Atomic(keys, func(t *wflocks.MapTxn[K, V]) {
//		...
//		wflocks.Put(t.Tx(), ok, true)
//	})
func (t *MapTxn[K, V]) Tx() *Tx { return t.tx }

// GetBatch looks up many keys, amortizing lock acquisitions: the
// deduplicated keys are grouped by shard and each chunk — up to
// MaxLocks distinct shards, within the critical-step budget — is read
// in one multi-lock transaction on the Atomic path. Results align with
// keys (duplicates get identical results). Each chunk is atomic (its
// keys are observed at one instant); the batch as a whole is not a
// single transaction when the keys span more chunks than one
// acquisition can hold — use Atomic directly when cross-key atomicity
// over the full set is required.
func (mp *Map[K, V]) GetBatch(keys []K) ([]V, []bool) {
	type result struct {
		v  V
		ok bool
	}
	got := make(map[K]result, len(keys))
	mp.batch(keys, func(chunk []K) error {
		cells := make([]*Cell[V], len(chunk))
		found := make([]*Cell[bool], len(chunk))
		for i := range chunk {
			cells[i] = newResultCell(mp.vc)
			found[i] = NewBoolCell(false)
		}
		err := mp.Atomic(chunk, func(t *MapTxn[K, V]) {
			for i, k := range chunk {
				if v, ok := t.Get(k); ok {
					Put(t.Tx(), cells[i], v)
					Put(t.Tx(), found[i], true)
				}
			}
		})
		if err != nil {
			return err
		}
		p := mp.m.Acquire()
		defer mp.m.Release(p)
		for i, k := range chunk {
			var r result
			if found[i].Get(p) {
				r = result{v: cells[i].Get(p), ok: true}
			}
			got[k] = r
		}
		return nil
	})
	vals := make([]V, len(keys))
	oks := make([]bool, len(keys))
	for j, k := range keys {
		vals[j], oks[j] = got[k].v, got[k].ok
	}
	return vals, oks
}

// PutBatch stores vals[i] for keys[i] (lengths must match), grouped and
// chunked exactly as GetBatch; a duplicated key stores its last value,
// matching a sequential Put loop. Each chunk commits atomically; if any
// chunk's shard ran out of buckets, PutBatch reports ErrMapFull after
// finishing every chunk (successful inserts stand, as with Put).
func (mp *Map[K, V]) PutBatch(keys []K, vals []V) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("wflocks: PutBatch: %d keys but %d values", len(keys), len(vals))
	}
	last := make(map[K]V, len(keys))
	for j, k := range keys {
		last[k] = vals[j]
	}
	var firstErr error
	mp.batch(keys, func(chunk []K) error {
		err := mp.Atomic(chunk, func(t *MapTxn[K, V]) {
			for _, k := range chunk {
				t.Put(k, last[k])
			}
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	})
	return firstErr
}

// batch partitions keys into chunks one acquisition can hold: keys are
// deduplicated, grouped by shard, and shards packed greedily up to the
// manager's MaxLocks bound and the critical-step budget. run is called
// once per chunk; a non-nil return panics (GetBatch's budgets are
// validated by construction, so a failure here is a programming error,
// consistent with the map's other read paths).
func (mp *Map[K, V]) batch(keys []K, run func(chunk []K) error) {
	if len(keys) == 0 {
		return
	}
	// Deduplicate, then group unique keys by shard in first-seen order.
	seen := make(map[K]struct{}, len(keys))
	shardOrder := make([]int, 0, 8)
	byShard := make(map[int][]K)
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		si := mp.eng.ShardIndex(mp.eng.Hash(k))
		if _, ok := byShard[si]; !ok {
			shardOrder = append(shardOrder, si)
		}
		byShard[si] = append(byShard[si], k)
	}
	maxShards := mp.m.cfg.maxLocks
	// Conservative per-chunk key budget: each distinct key costs one
	// single-shard budget plus one probe of re-probe headroom.
	maxKeys := mp.m.cfg.maxCritical / (mp.opBudget + mp.probeCost)
	if maxKeys < 1 {
		maxKeys = 1
	}
	var chunk []K
	shardsIn := 0
	flush := func() {
		if len(chunk) > 0 {
			if err := run(chunk); err != nil {
				panic("wflocks: Map batch: " + err.Error())
			}
			chunk, shardsIn = nil, 0
		}
	}
	for _, si := range shardOrder {
		group := byShard[si]
		if shardsIn+1 > maxShards || len(chunk)+len(group) > maxKeys {
			flush()
		}
		// A single shard whose keys alone exceed the budget is split into
		// chunks of its own (always ≥1 key per chunk).
		for len(group) > maxKeys {
			if err := run(group[:maxKeys]); err != nil {
				panic("wflocks: Map batch: " + err.Error())
			}
			group = group[maxKeys:]
		}
		chunk = append(chunk, group...)
		shardsIn++
	}
	flush()
}
