package wflocks

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wflocks/internal/arena"
	"wflocks/internal/core"
	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/obs"
)

// Manager is a family of locks sharing one configuration. Create one
// with New; it is safe for concurrent use.
type Manager struct {
	sys   *core.System
	cfg   config
	retry RetryPolicy

	// rec is the observability recorder (WithMetrics/WithTracing); nil
	// keeps every hot-path hook to a single branch.
	rec *obs.Recorder

	nextPid atomic.Int64

	// procs is the per-goroutine handle pool backing Acquire/Release
	// and the implicit Do path.
	procs sync.Pool

	// mu guards locks, the registry feeding Stats' per-lock counters.
	mu    sync.Mutex
	locks []*Lock
}

// New creates a Manager. See the Option constructors for configuration;
// either WithKappa or WithUnknownBounds is required. Invalid options
// are reported as errors rather than silently voiding the guarantees.
func New(opts ...Option) (*Manager, error) {
	cfg := config{
		maxLocks:    2,
		maxCritical: 64,
		retry:       RetryGosched(),
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if cfg.metrics {
		// Histogram writer shards track the number of Ps that can be
		// recording at once; pids index into them modulo the count.
		shards := runtime.GOMAXPROCS(0)
		if shards < 8 {
			shards = 8
		}
		ring := cfg.traceRing
		if ring == 0 {
			ring = 4096
		}
		rec = obs.NewRecorder(shards, cfg.traceRate, ring)
		if cfg.wdDelaySteps > 0 || cfg.wdHelpNanos > 0 {
			rec.SetWatchdog(cfg.wdDelaySteps, cfg.wdHelpNanos, cfg.wdAlertCap)
		}
	}
	sys, err := core.NewSystem(core.Config{
		Kappa:         cfg.kappa,
		MaxLocks:      cfg.maxLocks,
		MaxThunkSteps: cfg.maxCritical * idemStepsPerOp,
		NumProcs:      cfg.numProcs,
		DelayC:        cfg.delayC,
		DelayC1:       cfg.delayC1,
		UnknownBounds: cfg.unknownBounds,
		FastPath:      !cfg.noFastPath,
		Obs:           rec,
	})
	if err != nil {
		return nil, fmt.Errorf("wflocks: %w", err)
	}
	m := &Manager{sys: sys, cfg: cfg, retry: cfg.retry, rec: rec}
	m.procs.New = func() any { return m.NewProcess() }
	return m, nil
}

// idemStepsPerOp is the worst-case simulated steps per critical-section
// operation under the idempotence layer; the manager converts the
// user-facing "operations" bound into the algorithm's step bound T.
const idemStepsPerOp = 8

// Lock is a single fine-grained lock.
type Lock struct {
	inner *core.Lock
}

// NewLock creates a lock.
func (m *Manager) NewLock() *Lock {
	l := &Lock{inner: m.sys.NewLock()}
	m.mu.Lock()
	m.locks = append(m.locks, l)
	m.mu.Unlock()
	return l
}

// ID returns a process-wide unique identifier for the lock.
func (l *Lock) ID() int { return l.inner.ID() }

// Process is a per-goroutine handle carrying step accounting and a
// private random stream. The common path (Do, DoCtx, Load, Store)
// manages handles implicitly through the manager's pool; create one
// explicitly only when you need per-process step accounting, and then
// never share it between goroutines.
type Process struct {
	env *env.Native

	// lockBuf is the reusable buffer for unwrapped lock sets. It is
	// owner-transient — core copies the set into its own attempt
	// record before publishing — so plain reuse is safe.
	lockBuf []*core.Lock
}

// typedArenas is a process's bump arenas for frames, Tx handles and
// MapTxn views, in its ScratchTx slot, found by type with a short scan.
type typedArenas []any

// newIn draws a fresh F from the arena for F in scratch slot s, created
// on first use, or from the heap when s is nil (an environment without
// scratch state). Frames and handles are read by helpers at unbounded
// staleness, so they are never recycled; the arena abandons full chunks
// (internal/arena).
func newIn[F any](s *any) *F {
	if s == nil {
		return new(F)
	}
	as, _ := (*s).(*typedArenas)
	if as == nil {
		as = new(typedArenas)
		*s = as
	}
	for _, a := range *as {
		if a, ok := a.(*arena.Arena[F]); ok {
			return a.New()
		}
	}
	a := &arena.Arena[F]{}
	*as = append(*as, a)
	return a.New()
}

// frameFor draws a fresh operation frame of type F from p's arenas.
func frameFor[F any](p *Process) *F { return newIn[F](p.env.Scratch(env.ScratchTx)) }

// runNew draws a fresh F from the arenas of the process executing r.
func runNew[F any](r *idem.Run) *F { return newIn[F](env.ScratchOf(r.Env(), env.ScratchTx)) }

// NewProcess creates a fresh process handle. Prefer Acquire, which
// reuses pooled handles.
func (m *Manager) NewProcess() *Process {
	pid := m.nextPid.Add(1) - 1
	return &Process{env: env.NewNative(int(pid), env.Mix(m.cfg.seed, uint64(pid)+0x9e37))}
}

// Pid returns the process id.
func (p *Process) Pid() int { return p.env.Pid() }

// Steps reports the total algorithm steps this process has taken.
func (p *Process) Steps() uint64 { return p.env.Steps() }

// Tx is the handle critical sections use for shared-memory access. All
// shared reads and writes inside a critical section must go through it,
// via the typed accessors Get, Put and CompareSwap.
type Tx struct {
	run *idem.Run
}

// txFrame adapts a closure body to idem.Thunk, the one form the runner
// takes. A func value is pointer-shaped, so the conversion to the
// interface allocates nothing and the frame needs no arena: it is the
// closure itself, immutable for as long as any helper can still reach
// it.
type txFrame func(*Tx)

// RunThunk implements idem.Thunk. It runs on the owner's and any
// helper's goroutine; the Tx handle comes from the executing process's
// own arena.
func (f txFrame) RunThunk(r *idem.Run) {
	f(newTx(r))
}

// newTx returns a Tx for r, drawn from the executing process's arenas.
func newTx(r *idem.Run) *Tx {
	tx := runNew[Tx](r)
	tx.run = r
	return tx
}

// TryLock attempts to acquire all locks and run body atomically. maxOps
// bounds the number of shared-memory operations body performs (it must
// be at most the manager's WithMaxCriticalSteps bound). It returns true
// if the attempt won, in which case body has executed exactly once; on
// false, body has not run at all. Validation failures (ErrNoLocks,
// ErrTooManyLocks, ErrMaxOpsExceeded) are reported without attempting.
//
// Attempts are independent: each succeeds with probability at least
// 1/(κL) regardless of past attempts, so retrying wins quickly.
func (m *Manager) TryLock(p *Process, locks []*Lock, maxOps int, body func(*Tx)) (bool, error) {
	if err := m.validateCall(locks, maxOps); err != nil {
		return false, err
	}
	return m.tryLockThunk(p, locks, maxOps, txFrame(body)), nil
}

// tryLockThunk runs one validated attempt with a prepared thunk frame.
// This is the allocation-free core of every acquisition: the attempt's
// record (descriptor, exec and first log segment) comes from the
// process arena, and the unwrapped lock set reuses the handle's buffer
// (core copies it before publishing).
func (m *Manager) tryLockThunk(p *Process, locks []*Lock, maxOps int, t idem.Thunk) bool {
	if cap(p.lockBuf) < len(locks) {
		p.lockBuf = make([]*core.Lock, len(locks))
	}
	inner := p.lockBuf[:len(locks)]
	for i, l := range locks {
		inner[i] = l.inner
	}
	return m.sys.TryLocks(p.env, inner, t, maxOps)
}

// Lock acquires the locks with an explicit process handle, retrying
// until an attempt wins, and returns the number of attempts used.
// Expected attempts are O(κL). Between failed attempts it applies the
// manager's RetryPolicy. Prefer Do unless you need p's step accounting.
func (m *Manager) Lock(p *Process, locks []*Lock, maxOps int, body func(*Tx)) (int, error) {
	return m.LockCtx(context.Background(), p, locks, maxOps, body)
}

// LockCtx is Lock with cancellation: it shares the DoCtx retry loop,
// so a sleeping RetryPolicy wakes early and the loop returns an error
// wrapping ErrCanceled — with the failed attempt count — once ctx is
// done. A nil error means the returned number of attempts ended in a
// win.
func (m *Manager) LockCtx(ctx context.Context, p *Process, locks []*Lock, maxOps int, body func(*Tx)) (int, error) {
	if err := m.validateCall(locks, maxOps); err != nil {
		return 0, err
	}
	return m.run(ctx, p, locks, maxOps, txFrame(body))
}

// run is the one retry-until-win loop in the package: every blocking
// acquisition — Do, DoCtx, Lock, LockCtx, the transactions and every
// structure operation — is tryLockThunk under p until an attempt wins,
// with the manager's RetryPolicy between failures and a ctx check
// before each attempt. Each retry creates a fresh exec over the same
// thunk t, which is safe: a lost exec's body never runs, so only the
// winning exec's (identical) parameters ever take effect. It returns
// the number of attempts used by a win, or the failed attempt count
// and an error wrapping ErrCanceled and ctx's error.
//
// The caller has validated locks and maxOps (validateCall, or a
// structure's construction-time budget check), so under
// context.Background() — what the structures pass, with lock sets
// built at construction — run cannot fail and the result is dropped.
func (m *Manager) run(ctx context.Context, p *Process, locks []*Lock, maxOps int, t idem.Thunk) (int, error) {
	var t0 time.Time
	if m.rec != nil {
		t0 = time.Now()
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return attempt - 1, fmt.Errorf("%w after %d attempts: %w", ErrCanceled, attempt-1, err)
		}
		if m.tryLockThunk(p, locks, maxOps, t) {
			if m.rec != nil {
				m.rec.RecAcquire(p.Pid(), uint64(time.Since(t0)))
			}
			return attempt, nil
		}
		m.retry.Wait(ctx, attempt)
	}
}

// await is the one blocking loop behind the structures' waiting forms
// (Enqueue, Dequeue, Append, Cursor.Next and the batch variants). try
// is a pass of complete, won acquisitions that reports false when it
// found the structure full or empty; await repeats it under the
// manager's RetryPolicy, checking ctx before each pass. Once ctx is done
// it returns an error wrapping ErrCanceled and ctx's error that names
// the structure and the state waited on (noun and state, e.g. "queue"
// "full") and the failed pass count.
//
// A waiter whose wake-up somebody will signal passes park: after every
// parkAfter consecutive failed passes await calls it instead of the
// policy, and park blocks until the awaited state may have changed or
// ctx is done (WorkPool.park, the empty side of Dequeue). A parked
// waiter makes no attempts, so waiting for input costs nothing; the
// policy's count restarts after each park, so a backoff policy does not
// sleep through the wake that follows it. With a nil park await is the
// plain retry loop.
func (m *Manager) await(ctx context.Context, noun, state string, try func() bool, park func()) error {
	failed := 0 // passes since the last park
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %s %s after %d attempts: %w", ErrCanceled, noun, state, attempt-1, err)
		}
		if try() {
			return nil
		}
		failed++
		if park != nil && failed == parkAfter {
			park()
			failed = 0
		} else {
			m.retry.Wait(ctx, failed)
		}
	}
}

// parkAfter is the number of failed passes a parkable waiter makes under
// the RetryPolicy before it parks. It is a constant, not an option: it
// has to be large enough that a saturated consumer (the next element is
// one producer critical section away) never reaches it, and small enough
// that an idle one costs a handful of attempts per wake-up; 4 holds both
// on the serve workloads.
const parkAfter = 4

// validateCall audits an acquisition's arguments against the manager's
// configured bounds.
func (m *Manager) validateCall(locks []*Lock, maxOps int) error {
	if len(locks) == 0 {
		return ErrNoLocks
	}
	if len(locks) > m.cfg.maxLocks {
		return fmt.Errorf("%w: %d locks, bound L=%d", ErrTooManyLocks, len(locks), m.cfg.maxLocks)
	}
	if maxOps <= 0 || maxOps > m.cfg.maxCritical {
		return fmt.Errorf("%w: maxOps=%d, bound T=%d", ErrMaxOpsExceeded, maxOps, m.cfg.maxCritical)
	}
	return nil
}
