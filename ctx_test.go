package wflocks

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDoCtxAlreadyCanceled(t *testing.T) {
	m := newManager(t, WithKappa(2))
	l := m.NewLock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.DoCtx(ctx, []*Lock{l}, 2, func(*Tx) {
		t.Error("body ran under a canceled context")
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDoCtxCancelMidRetry cancels while several workers are contending
// (and hence retrying with a sleeping backoff) and checks every DoCtx
// loop tears down promptly with ErrCanceled.
func TestDoCtxCancelMidRetry(t *testing.T) {
	m := newManager(t, WithKappa(4), WithMaxLocks(1), WithMaxCriticalSteps(16),
		WithRetryPolicy(RetryBackoff(time.Millisecond, 4*time.Millisecond)))
	l := m.NewLock()
	c := NewCell(uint64(0))
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				err := m.DoCtx(ctx, []*Lock{l}, 4, func(tx *Tx) {
					Put(tx, c, Get(tx, c)+1)
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DoCtx did not return promptly after cancel")
	}
	for w, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("worker %d err = %v, want ErrCanceled", w, err)
		}
	}
}

func TestDoCtxDeadline(t *testing.T) {
	m := newManager(t, WithKappa(2))
	l := m.NewLock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// Keep acquiring until the deadline hits; the final call must report
	// ErrCanceled rather than spinning past the deadline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		err := m.DoCtx(ctx, []*Lock{l}, 2, func(*Tx) {})
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			return
		}
	}
	t.Fatal("DoCtx kept succeeding past its deadline")
}

// TestLockCtxCancel covers the Lock-path half of the shared retry
// loop: LockCtx must honor cancellation exactly as DoCtx does (the two
// are one implementation), and Lock must keep its attempt-count
// contract on the win path.
func TestLockCtxCancel(t *testing.T) {
	m := newManager(t, WithKappa(2))
	l := m.NewLock()
	p := m.NewProcess()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attempts, err := m.LockCtx(ctx, p, []*Lock{l}, 2, func(*Tx) {
		t.Error("body ran under a canceled context")
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if attempts != 0 {
		t.Fatalf("attempts = %d, want 0 under pre-canceled context", attempts)
	}

	// The live-context path still wins and reports its attempt count.
	c := NewCell(uint64(0))
	attempts, err = m.LockCtx(context.Background(), p, []*Lock{l}, 2, func(tx *Tx) {
		Put(tx, c, Get(tx, c)+1)
	})
	if err != nil || attempts < 1 {
		t.Fatalf("LockCtx = (%d, %v), want (>=1, nil)", attempts, err)
	}
	if Load(m, c) != 1 {
		t.Fatal("critical section did not run")
	}
	if n, err := m.Lock(p, []*Lock{l}, 2, func(tx *Tx) {
		Put(tx, c, Get(tx, c)+1)
	}); err != nil || n < 1 {
		t.Fatalf("Lock = (%d, %v), want (>=1, nil)", n, err)
	}
}

func TestRetryPolicies(t *testing.T) {
	// Each policy must let an uncontended Do complete.
	for _, tc := range []struct {
		name   string
		policy RetryPolicy
	}{
		{"immediate", RetryImmediate()},
		{"gosched", RetryGosched()},
		{"backoff", RetryBackoff(time.Microsecond, time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, WithKappa(2), WithRetryPolicy(tc.policy))
			l := m.NewLock()
			c := NewCell(uint64(0))
			if err := m.Do([]*Lock{l}, 2, func(tx *Tx) {
				Put(tx, c, Get(tx, c)+1)
			}); err != nil {
				t.Fatal(err)
			}
			if Load(m, c) != 1 {
				t.Fatal("critical section did not run")
			}
		})
	}
}

func TestBackoffWaitRespectsContext(t *testing.T) {
	p := RetryBackoff(time.Hour, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Wait(ctx, 1)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("backoff slept through cancellation")
	}
}

func TestBackoffCapsDelay(t *testing.T) {
	p := RetryBackoff(time.Microsecond, 2*time.Millisecond).(*backoffPolicy)
	start := time.Now()
	// Attempt 60 would shift into absurdity without the cap.
	p.Wait(context.Background(), 60)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("capped backoff slept %v", elapsed)
	}
}

// cancelAtWait is a RetryPolicy that cancels the acquisition's context
// at its n-th Wait, so a blocked operation gives up after exactly n
// failed passes.
type cancelAtWait struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtWait) Wait(_ context.Context, n int) {
	if n == c.n {
		c.cancel()
	}
}

// TestCancellationOneRunnerOneHelper drives every cancellable entry
// point through the single runner (Manager.run) or the single blocking
// helper (Manager.await) and checks the one cancellation contract:
// errors.Is(err, ErrCanceled), the context's own error wrapped beside
// it, and the failed attempt count in the message. Acquisitions are
// uncontended, so an attempt never loses: they are canceled before the
// first attempt (0 attempts). The blocking forms face a full or drained
// structure and are canceled at the policy's third Wait (3 attempts).
func TestCancellationOneRunnerOneHelper(t *testing.T) {
	const waits = 3
	type env struct {
		ctx context.Context
		m   *Manager
	}
	fullQueue := func(t *testing.T, m *Manager) *Queue[uint64] {
		q, err := NewQueue[uint64](m, WithQueueCapacity(2))
		if err != nil {
			t.Fatal(err)
		}
		for q.TryEnqueue(1) {
		}
		return q
	}
	pool := func(t *testing.T, m *Manager, fill bool) *WorkPool[uint64] {
		wp, err := NewWorkPool[uint64](m, WithPoolShards(2), WithPoolCapacity(4))
		if err != nil {
			t.Fatal(err)
		}
		for fill && wp.TryEnqueue(1) {
		}
		return wp
	}
	// A one-shard log whose attached cursor never advances: full after
	// one ring of appends when fill is set, drained otherwise.
	pinnedLog := func(t *testing.T, m *Manager, fill bool) (*Log[uint64], *Cursor[uint64]) {
		lg, err := NewLog[uint64](m, WithLogShards(1), WithLogCapacity(16), WithLogSegment(16), WithLogConsumers(2))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := lg.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		for fill && lg.TryAppend(1) {
		}
		return lg, cur
	}
	for _, tc := range []struct {
		name     string
		blocking bool   // canceled at the third Wait, not up front
		what     string // the state named in a blocking form's message
		call     func(t *testing.T, e env) (attempts int, err error)
	}{
		{name: "DoCtx", call: func(t *testing.T, e env) (int, error) {
			return -1, e.m.DoCtx(e.ctx, []*Lock{e.m.NewLock()}, 2, func(*Tx) { t.Error("body ran") })
		}},
		{name: "LockCtx", call: func(t *testing.T, e env) (int, error) {
			return e.m.LockCtx(e.ctx, e.m.NewProcess(), []*Lock{e.m.NewLock()}, 2, func(*Tx) { t.Error("body ran") })
		}},
		{name: "AtomicCtx", call: func(t *testing.T, e env) (int, error) {
			mp, err := NewMap[uint64, uint64](e.m, WithShards(2), WithShardCapacity(4))
			if err != nil {
				t.Fatal(err)
			}
			return -1, mp.AtomicCtx(e.ctx, []uint64{1, 2}, func(*MapTxn[uint64, uint64]) { t.Error("body ran") })
		}},
		{name: "Queue.Enqueue", blocking: true, what: "queue full", call: func(t *testing.T, e env) (int, error) {
			return -1, fullQueue(t, e.m).Enqueue(e.ctx, 9)
		}},
		{name: "Queue.Dequeue", blocking: true, what: "queue empty", call: func(t *testing.T, e env) (int, error) {
			q, err := NewQueue[uint64](e.m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = q.Dequeue(e.ctx)
			return -1, err
		}},
		{name: "WorkPool.Enqueue", blocking: true, what: "pool full", call: func(t *testing.T, e env) (int, error) {
			return -1, pool(t, e.m, true).Enqueue(e.ctx, 9)
		}},
		{name: "WorkPool.EnqueueKeyed", blocking: true, what: "pool full", call: func(t *testing.T, e env) (int, error) {
			return -1, pool(t, e.m, true).EnqueueKeyed(e.ctx, 7, 9)
		}},
		{name: "WorkPool.Dequeue", blocking: true, what: "pool empty", call: func(t *testing.T, e env) (int, error) {
			_, err := pool(t, e.m, false).Dequeue(e.ctx)
			return -1, err
		}},
		{name: "Log.Append", blocking: true, what: "log full", call: func(t *testing.T, e env) (int, error) {
			lg, _ := pinnedLog(t, e.m, true)
			return -1, lg.Append(e.ctx, 9)
		}},
		{name: "Log.AppendKeyed", blocking: true, what: "log shard full", call: func(t *testing.T, e env) (int, error) {
			lg, _ := pinnedLog(t, e.m, true)
			return -1, lg.AppendKeyed(e.ctx, 7, 9)
		}},
		{name: "Cursor.Next", blocking: true, what: "log drained", call: func(t *testing.T, e env) (int, error) {
			_, cur := pinnedLog(t, e.m, false)
			_, err := cur.Next(e.ctx)
			return -1, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := newManager(t, WithKappa(2), WithMaxLocks(2), WithMaxCriticalSteps(256),
				WithDelayConstants(1, 1), WithRetryPolicy(&cancelAtWait{n: waits, cancel: cancel}))
			want := waits
			if !tc.blocking {
				cancel()
				want = 0
			}
			attempts, err := tc.call(t, env{ctx, m})
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if attempts >= 0 && attempts != want {
				t.Fatalf("returned attempts = %d, want %d", attempts, want)
			}
			if msg := fmt.Sprintf("%s after %d attempts", tc.what, want); !strings.Contains(err.Error(), msg) {
				t.Fatalf("err = %q, want it to report %q", err, msg)
			}
		})
	}
}
