package wflocks

import (
	"sync/atomic"

	"wflocks/internal/idem"
	"wflocks/internal/table"
)

// Critical sections as frames: the one pattern behind mapFrame, and
// poolFrame, logFrame and txnFrame in workpool.go, log.go and txn.go.
//
// A stalled attempt's body may be re-run by helpers, concurrently and
// long after the owner returned. A closure section (txFrame) copes by
// capturing its inputs on the heap and routing results through fresh
// cells. A frame is one object drawn per call from the owner's bump
// arena (frameFor) that implements idem.Thunk: its kind and parameters
// are plain fields, safe because the frame is fresh and never
// recycled, so a straggling helper reads the parameters its exec was
// created with. Results are atomic fields on the frame: every run
// derives the same values from the canonical log, so the concurrent
// stores agree (see idem.Body), and the owner reads them after its
// attempt won. A result that does not fit a word — an element under a
// multi-word codec, or a batch of them — goes through result cells the
// frame carries (a handout). Per-run state such as a Tx or a MapTxn
// view comes from the executing process's arenas (runNew).
//
// Counters that only feed Stats are not written in the section: the
// section publishes what it did (found, moved, reclaimed) and the owner
// adds it to a plain atomic once the section is over, so helpers'
// re-runs count nothing and Stats is exact at quiescence.

// mapFrame operation kinds.
const (
	mopGet uint8 = iota + 1
	mopPut
	mopDelete
	mopUpdate
)

// mapFrame result bits.
const (
	mresFound uint32 = 1 << iota
	mresFull
)

// mapFrame is a single-key critical section in frame form: one
// arena-allocated object per call, implementing idem.Thunk.
type mapFrame[K comparable, V any] struct {
	mp   *Map[K, V]
	sh   *table.Shard
	h    uint64
	home int
	op   uint8
	k    K
	v    V
	fn   func(old V, ok bool) (V, bool)

	// out is Get's result cell when the value codec is multi-word; nil
	// for scalar codecs, whose found value rides resWord instead.
	out *Cell[V]

	// Results, published by every run with identical derived values.
	// resWord holds the scalar-encoded found value (Get only).
	resWord atomic.Uint64
	resBits atomic.Uint32
}

// RunThunk implements idem.Thunk: the frame's operation as a
// deterministic critical-section body.
func (f *mapFrame[K, V]) RunThunk(r *idem.Run) {
	eng := f.mp.eng
	switch f.op {
	case mopGet:
		i, ok, _ := eng.Find(r, f.sh, f.h, f.home, f.k)
		if !ok {
			return
		}
		if v := eng.Val(r, f.sh, i); f.out != nil {
			Put(newTx(r), f.out, v)
		} else {
			f.resWord.Store(f.mp.scalarV.EncodeWord(v))
		}
		f.resBits.Store(mresFound)
	case mopPut:
		eng.BumpVer(r, f.sh)
		i, ok, free := eng.Find(r, f.sh, f.h, f.home, f.k)
		switch {
		case ok:
			eng.SetVal(r, f.sh, i, f.v)
		case free < 0:
			f.resBits.Store(mresFull)
		default:
			eng.Insert(r, f.sh, free, f.h, f.k, f.v)
		}
		eng.BumpVer(r, f.sh)
	case mopDelete:
		eng.BumpVer(r, f.sh)
		if i, ok, _ := eng.Find(r, f.sh, f.h, f.home, f.k); ok {
			eng.Remove(r, f.sh, i)
			f.resBits.Store(mresFound)
		}
		eng.BumpVer(r, f.sh)
	case mopUpdate:
		eng.BumpVer(r, f.sh)
		i, ok, free := eng.Find(r, f.sh, f.h, f.home, f.k)
		var old V
		if ok {
			old = eng.Val(r, f.sh, i)
		}
		nv, keep := f.fn(old, ok)
		switch {
		case keep && ok:
			eng.SetVal(r, f.sh, i, nv)
		case keep && free < 0:
			f.resBits.Store(mresFull)
		case keep:
			eng.Insert(r, f.sh, free, f.h, f.k, nv)
		case ok:
			eng.Remove(r, f.sh, i)
		}
		eng.BumpVer(r, f.sh)
	}
}

// ExpectedOps implements idem.Sized, sizing the log's first segment:
// an insert behind one occupied bucket costs 4 version operations, a
// probe of two buckets' metadata and one key, and the insert's 3+kw+vw
// (12 for single-word keys and values); most calls take no more.
func (f *mapFrame[K, V]) ExpectedOps() int {
	return 9 + 2*f.mp.eng.KeyWords() + f.mp.vc.Words()
}

// frame prepares a fresh operation frame for one single-key call.
func (mp *Map[K, V]) frame(p *Process, op uint8, sh *table.Shard, h uint64, home int, k K) *mapFrame[K, V] {
	f := frameFor[mapFrame[K, V]](p)
	f.mp, f.sh, f.h, f.home, f.k, f.op = mp, sh, h, home, k, op
	return f
}
