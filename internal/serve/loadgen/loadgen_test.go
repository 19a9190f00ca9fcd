package loadgen_test

import (
	"context"
	"net"
	"testing"
	"time"

	"wflocks/internal/serve"
	"wflocks/internal/serve/loadgen"
)

// startServer runs a server over a loopback listener.
func startServer(t *testing.T, cfg serve.Config) func() (net.Conn, error) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	lis := serve.NewLoopback()
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
	})
	return lis.Dial
}

func TestLoadgenBasic(t *testing.T) {
	dial := startServer(t, serve.Config{Backend: serve.BackendMap})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := loadgen.Run(ctx, dial, loadgen.Config{
		Rate:     2000,
		Duration: 200 * time.Millisecond,
		Conns:    4,
		Keys:     64,
		GetPct:   70, SetPct: 25, DelPct: 5,
		Prefill: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Total.Sent == 0 || res.Total.Done != res.Total.Sent {
		t.Fatalf("sent %d, done %d; want all sent ops answered", res.Total.Sent, res.Total.Done)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("%d protocol errors", res.Total.Errors)
	}
	// The per-op breakdown partitions the total.
	var sum uint64
	for _, part := range res.PerOp {
		sum += part.Done
		if part.Hist.Count() != part.Done {
			t.Fatalf("per-op histogram count %d != done %d", part.Hist.Count(), part.Done)
		}
	}
	if sum != res.Total.Done {
		t.Fatalf("per-op dones sum to %d, total %d", sum, res.Total.Done)
	}
	// Percentiles are ordered and the aggregate histogram is complete.
	if res.Total.Hist.Count() != res.Total.Done {
		t.Fatalf("aggregate histogram count %d != done %d", res.Total.Hist.Count(), res.Total.Done)
	}
	p50, p99 := res.Quantile(0.50), res.Quantile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	if res.AchievedRate <= 0 {
		t.Fatalf("achieved rate %g", res.AchievedRate)
	}
}

func TestLoadgenRejectsBadMix(t *testing.T) {
	dial := startServer(t, serve.Config{})
	_, err := loadgen.Run(context.Background(), dial, loadgen.Config{
		Rate: 100, Duration: time.Millisecond, GetPct: 50, SetPct: 30, DelPct: 30,
	})
	if err == nil {
		t.Fatal("mix summing to 110 accepted")
	}
}

// TestLoadgenCoordinatedOmission is the harness's reason to exist: when
// the server stalls, the recorded latency must include the queueing
// delay every scheduled-but-unserved request suffered — not just the
// stalled operation's own service time, which is all a closed-loop
// (send, wait, send) client would see.
func TestLoadgenCoordinatedOmission(t *testing.T) {
	const stall = 5 * time.Millisecond
	dial := startServer(t, serve.Config{
		Backend: serve.BackendMutex,
		Stall:   func() { time.Sleep(stall) },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Arrivals every 2ms against a single key whose every write holds
	// the backend for 5ms: the queue grows by ~3ms per arrival, so the
	// tail of the schedule waits tens of milliseconds. A
	// coordinated-omission-blind harness would report ~5ms throughout.
	res, err := loadgen.Run(ctx, dial, loadgen.Config{
		Rate:     500,
		Duration: 200 * time.Millisecond,
		Conns:    2,
		Keys:     1,
		GetPct:   0, SetPct: 100, DelPct: 0,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Total.Done != res.Total.Sent {
		t.Fatalf("sent %d, done %d", res.Total.Sent, res.Total.Done)
	}
	// The median already includes accumulated queueing delay, several
	// times the per-op service time.
	if p50 := res.Quantile(0.50); p50 < 4*stall {
		t.Fatalf("p50 = %v; open-loop accounting should show ≥ %v of queueing delay", p50, 4*stall)
	}
	// And the tail is far beyond what any single op costs.
	if p99 := res.Quantile(0.99); p99 < 10*stall {
		t.Fatalf("p99 = %v; the backlogged tail should exceed %v", p99, 10*stall)
	}
}
