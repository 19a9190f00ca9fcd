package bench

import (
	"fmt"

	"wflocks/internal/baseline"
	"wflocks/internal/core"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/workload"
)

// Algorithm is the harness-side abstraction over the wait-free locks
// and the baselines: attempt to run an idempotent thunk under a set of
// locks (identified by index), reporting success.
type Algorithm interface {
	// Name identifies the algorithm in tables.
	Name() string
	// TryLocks attempts the locks at the given indices with the
	// critical section.
	TryLocks(e env.Env, lockIdx []int, cs Section) bool
	// WaitFree reports whether every attempt has a bounded step count.
	WaitFree() bool
}

// Section is a critical section as the harness hands it to an
// algorithm: an idempotent body and its operation budget. The wait-free
// locks run it inside each attempt's own record; the baselines take it
// as one heap-allocated exec per attempt (exec).
type Section struct {
	Body   idem.Body
	MaxOps int
}

func (cs Section) exec() *idem.Exec { return idem.NewExec(cs.Body, cs.MaxOps) }

// wfAlgo adapts a core.System to the Algorithm interface.
type wfAlgo struct {
	sys   *core.System
	locks []*core.Lock
	name  string
}

var _ Algorithm = (*wfAlgo)(nil)

// NewWF builds the paper's wait-free locks over numLocks locks.
func NewWF(cfg core.Config, numLocks int) Algorithm {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: bad core config: %v", err))
	}
	locks := make([]*core.Lock, numLocks)
	for i := range locks {
		locks[i] = sys.NewLock()
	}
	name := "wflocks"
	if cfg.UnknownBounds {
		name = "wflocks-unknown"
	}
	return &wfAlgo{sys: sys, locks: locks, name: name}
}

// WFForWorkload builds the wait-free locks configured for a workload.
func WFForWorkload(w *workload.Workload, thunkSteps int, unknown bool) Algorithm {
	cfg := core.Config{
		Kappa:         w.Kappa,
		MaxLocks:      w.MaxLocksPerSet,
		MaxThunkSteps: thunkSteps,
		DelayC:        4,
		DelayC1:       8,
	}
	if unknown {
		cfg.UnknownBounds = true
		cfg.NumProcs = w.NumProcs()
	}
	return NewWF(cfg, w.NumLocks)
}

func (a *wfAlgo) Name() string   { return a.name }
func (a *wfAlgo) WaitFree() bool { return true }

func (a *wfAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	ls := make([]*core.Lock, len(lockIdx))
	for i, li := range lockIdx {
		ls[i] = a.locks[li]
	}
	return a.sys.TryLocks(e, ls, cs.Body, cs.MaxOps)
}

// System exposes the underlying core system (for counters).
func (a *wfAlgo) System() *core.System { return a.sys }

// tasAlgo adapts baseline.TAS.
type tasAlgo struct{ t *baseline.TAS }

var _ Algorithm = tasAlgo{}

// NewTAS builds the fail-fast test-and-set baseline.
func NewTAS(numLocks int) Algorithm { return tasAlgo{t: baseline.NewTAS(numLocks)} }

func (a tasAlgo) Name() string   { return "tas" }
func (a tasAlgo) WaitFree() bool { return false }
func (a tasAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	return a.t.TryLocks(e, lockIdx, cs.exec())
}

// tspAlgo adapts baseline.TSP.
type tspAlgo struct{ t *baseline.TSP }

var _ Algorithm = tspAlgo{}

// NewTSP builds the Turek–Shasha–Prakash lock-free locks baseline.
func NewTSP(numLocks int) Algorithm { return tspAlgo{t: baseline.NewTSP(numLocks)} }

func (a tspAlgo) Name() string   { return "tsp-lockfree" }
func (a tspAlgo) WaitFree() bool { return false }
func (a tspAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	return a.t.TryLocks(e, lockIdx, cs.exec())
}

// stAlgo adapts baseline.ST (Shavit–Touitou selfish helping).
type stAlgo struct{ t *baseline.ST }

var _ Algorithm = stAlgo{}

// NewST builds the Shavit–Touitou selfish-helping baseline.
func NewST(numLocks int) Algorithm { return stAlgo{t: baseline.NewST(numLocks)} }

func (a stAlgo) Name() string   { return "st-selfish" }
func (a stAlgo) WaitFree() bool { return false }
func (a stAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	return a.t.TryLocks(e, lockIdx, cs.exec())
}

// herlihyAlgo adapts baseline.Herlihy (single-lock universal
// construction): every lock index maps to the one global object, so it
// is only valid on single-lock workloads.
type herlihyAlgo struct{ h *baseline.Herlihy }

var _ Algorithm = herlihyAlgo{}

// NewHerlihy builds the Herlihy-style universal construction sized for
// p processes. Only valid for L = 1 workloads.
func NewHerlihy(p int) Algorithm { return herlihyAlgo{h: baseline.NewHerlihy(p)} }

func (a herlihyAlgo) Name() string   { return "herlihy-universal" }
func (a herlihyAlgo) WaitFree() bool { return true }
func (a herlihyAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	if len(lockIdx) != 1 {
		panic("bench: herlihy-universal supports single-lock workloads only")
	}
	a.h.Do(e, cs.exec())
	return true
}

// spinAlgo adapts baseline.Spin.
type spinAlgo struct{ s *baseline.Spin }

var _ Algorithm = spinAlgo{}

// NewSpin builds the ordered blocking baseline.
func NewSpin(numLocks int) Algorithm { return spinAlgo{s: baseline.NewSpin(numLocks)} }

func (a spinAlgo) Name() string   { return "spin-2pl" }
func (a spinAlgo) WaitFree() bool { return false }
func (a spinAlgo) TryLocks(e env.Env, lockIdx []int, cs Section) bool {
	return a.s.TryLocks(e, lockIdx, cs.exec())
}
