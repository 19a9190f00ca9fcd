package wflocks

import (
	"context"
	"runtime"
	"time"
)

// RetryPolicy decides how an acquisition waits between failed attempts.
// Each attempt is wait-free and succeeds with probability at least
// 1/(κL), so a handful of retries almost always suffices; the policy
// controls how much CPU those retries burn and how they share the
// processor with other goroutines.
type RetryPolicy interface {
	// Wait is called after failed attempt number n (1-based) and before
	// attempt n+1. ctx is the acquisition's context (context.Background()
	// for Do and Lock); implementations that sleep must return early
	// when it is done.
	Wait(ctx context.Context, n int)
}

// RetryImmediate retries with no pause at all: maximum throughput on
// dedicated cores, at the price of hot-spinning under contention.
func RetryImmediate() RetryPolicy { return immediatePolicy{} }

type immediatePolicy struct{}

func (immediatePolicy) Wait(context.Context, int) {}

// RetryGosched yields the processor between attempts
// (runtime.Gosched). This is the default policy: it keeps retry loops
// from starving the very goroutines they are contending with, at
// negligible cost on the uncontended path.
func RetryGosched() RetryPolicy { return goschedPolicy{} }

type goschedPolicy struct{}

func (goschedPolicy) Wait(context.Context, int) { runtime.Gosched() }

// RetryBackoff sleeps between attempts, doubling from base up to the
// cap. Use it when attempts are expensive enough (large κ, L or T) that
// yielding alone still burns too much CPU. The sleep wakes early when
// the acquisition's context is canceled.
func RetryBackoff(base, cap time.Duration) RetryPolicy {
	if base <= 0 {
		base = 10 * time.Microsecond
	}
	if cap < base {
		cap = base
	}
	return &backoffPolicy{base: base, cap: cap}
}

type backoffPolicy struct {
	base, cap time.Duration
}

func (b *backoffPolicy) Wait(ctx context.Context, n int) {
	d := b.base
	// Doubling is capped arithmetically so n cannot overflow the shift.
	for i := 1; i < n && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Do acquires the locks and runs body atomically, retrying attempts
// under the manager's RetryPolicy until one wins. The per-goroutine
// process handle is managed implicitly (Acquire/Release), so this is
// the common path: no *Process plumbing. maxOps bounds body's
// shared-memory operations exactly as in TryLock.
func (m *Manager) Do(locks []*Lock, maxOps int, body func(*Tx)) error {
	return m.DoCtx(context.Background(), locks, maxOps, body)
}

// DoCtx is Do with cancellation: between attempts it checks ctx and
// returns an error wrapping ErrCanceled once ctx is done. The body
// never runs after DoCtx returns; a nil return means exactly one
// winning attempt executed it.
func (m *Manager) DoCtx(ctx context.Context, locks []*Lock, maxOps int, body func(*Tx)) error {
	if err := m.validateCall(locks, maxOps); err != nil {
		return err
	}
	p := m.Acquire()
	defer m.Release(p)
	_, err := m.run(ctx, p, locks, maxOps, txFrame(body))
	return err
}
