package wflocks

import (
	"sync"
	"testing"
	"time"
)

// obsWorkload hammers one lock from several goroutines so attempts
// contend, pay delays, and occasionally help.
func obsWorkload(t *testing.T, m *Manager, workers, opsPer int) {
	t.Helper()
	l := m.NewLock()
	c := NewCell(uint64(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			locks := []*Lock{l}
			for i := 0; i < opsPer; i++ {
				if err := m.Do(locks, 2, func(tx *Tx) {
					Put(tx, c, Get(tx, c)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get(m.NewProcess()); got != uint64(workers*opsPer) {
		t.Fatalf("counter %d, want %d", got, workers*opsPer)
	}
}

func TestObserveDisabled(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4))
	obsWorkload(t, m, 2, 50)
	os := m.Observe()
	if os.Enabled {
		t.Fatal("Observe on a metrics-off manager must report Enabled=false")
	}
	if os.Acquire.Count != 0 || os.Events != nil || os.AttemptSteps != 0 {
		t.Fatalf("metrics-off snapshot must be zero, got %+v", os)
	}
	if m.Tracing() {
		t.Fatal("metrics-off manager must not report tracing")
	}
	if os.Acquire.Quantile(0.5) != 0 || os.DelayShare() != 0 {
		t.Fatal("zero snapshot accessors must report 0")
	}
}

// TestObserveHistograms pins the metrics contract: one acquisition
// latency observation per successful Do, one delay-iterations
// observation per attempt, coherent step accounting, monotone
// quantiles.
func TestObserveHistograms(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4), WithMetrics())
	const workers, opsPer = 4, 200
	obsWorkload(t, m, workers, opsPer)
	st := m.Stats()
	os := m.Observe()
	if !os.Enabled {
		t.Fatal("WithMetrics manager must report Enabled")
	}
	if os.Acquire.Count != uint64(workers*opsPer) {
		t.Fatalf("acquire observations %d, want one per Do = %d", os.Acquire.Count, workers*opsPer)
	}
	if os.DelayIters.Count != st.Attempts {
		t.Fatalf("delay-iter observations %d, want one per attempt = %d", os.DelayIters.Count, st.Attempts)
	}
	if os.Acquire.Mean <= 0 || os.Acquire.Max == 0 {
		t.Fatalf("acquire summary degenerate: mean %v max %d", os.Acquire.Mean, os.Acquire.Max)
	}
	q50, q99 := os.Acquire.Quantile(0.5), os.Acquire.Quantile(0.99)
	if q50 > q99 || q99 > os.Acquire.Max {
		t.Fatalf("quantiles not monotone: p50 %d p99 %d max %d", q50, q99, os.Acquire.Max)
	}
	if os.AttemptSteps == 0 {
		t.Fatal("no attempt steps accounted")
	}
	if os.DelaySteps > os.AttemptSteps {
		t.Fatalf("delay steps %d exceed attempt steps %d", os.DelaySteps, os.AttemptSteps)
	}
	if share := os.DelayShare(); share < 0 || share > 1 {
		t.Fatalf("delay share %v outside [0,1]", share)
	}
	if os.Events != nil {
		t.Fatal("WithMetrics alone must not attach a flight recorder")
	}
	if m.Tracing() {
		t.Fatal("WithMetrics alone must not report tracing")
	}
}

// TestTracingEvents runs every attempt through the flight recorder
// (sample rate 1) and checks the lifecycle shows up: starts, decisions,
// ordered sequence numbers, well-formed payloads.
func TestTracingEvents(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4), WithTracing(1))
	if !m.Tracing() {
		t.Fatal("WithTracing manager must report tracing")
	}
	obsWorkload(t, m, 4, 100)
	os := m.Observe()
	if len(os.Events) == 0 {
		t.Fatal("sample rate 1 produced no events")
	}
	kinds := make(map[string]int)
	for i, ev := range os.Events {
		kinds[ev.Kind]++
		if i > 0 && os.Events[i-1].Seq >= ev.Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, os.Events[i-1].Seq, ev.Seq)
		}
		switch ev.Kind {
		case "start", "fastpath", "delay", "help", "win", "lose":
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	if kinds["start"] == 0 {
		t.Fatal("no start events recorded")
	}
	if kinds["win"]+kinds["fastpath"] == 0 {
		t.Fatal("no winning attempts recorded")
	}
	// "start" events carry the lock-set size.
	for _, ev := range os.Events {
		if ev.Kind == "start" && ev.Value != 1 {
			t.Fatalf("start event carries lock-set size %d, want 1", ev.Value)
		}
	}
}

func TestWithTracingValidation(t *testing.T) {
	if _, err := New(WithTracing(0)); err == nil {
		t.Fatal("WithTracing(0) must be rejected")
	}
	if _, err := New(WithTracing(-4)); err == nil {
		t.Fatal("WithTracing(-4) must be rejected")
	}
}

func TestStatsSub(t *testing.T) {
	prev := StatsSnapshot{
		Attempts: 100, Wins: 90, Helps: 10, FastPath: 50, HelpCompletions: 3,
		Locks: []LockStats{{ID: 0, Attempts: 60, Wins: 55, Helps: 4, HelpCompletions: 1}},
	}
	cur := StatsSnapshot{
		Attempts: 250, Wins: 220, Helps: 35, FastPath: 120, HelpCompletions: 7,
		Locks: []LockStats{
			{ID: 0, Attempts: 150, Wins: 140, Helps: 9, HelpCompletions: 5},
			{ID: 1, Attempts: 40, Wins: 38, Helps: 2}, // created after prev
		},
	}
	d := cur.Sub(prev)
	if d.Attempts != 150 || d.Wins != 130 || d.Helps != 25 || d.FastPath != 70 || d.HelpCompletions != 4 {
		t.Fatalf("manager-wide delta wrong: %+v", d)
	}
	if d.Locks[0].Attempts != 90 || d.Locks[0].Wins != 85 || d.Locks[0].Helps != 5 || d.Locks[0].HelpCompletions != 4 {
		t.Fatalf("matched lock delta wrong: %+v", d.Locks[0])
	}
	if d.Locks[1] != cur.Locks[1] {
		t.Fatalf("new lock must keep absolute counts, got %+v", d.Locks[1])
	}
	if r := d.HelpRate(); r != 25.0/150.0 {
		t.Fatalf("delta help rate %v", r)
	}
	if r := d.FastPathRate(); r != 70.0/150.0 {
		t.Fatalf("delta fast-path rate %v", r)
	}

	// A skewed pair (prev ahead of cur on one counter) saturates at zero
	// instead of wrapping.
	skew := StatsSnapshot{Attempts: 5}.Sub(StatsSnapshot{Attempts: 9, Wins: 1})
	if skew.Attempts != 0 || skew.Wins != 0 {
		t.Fatalf("skewed delta must saturate, got %+v", skew)
	}

	// Rates on the zero snapshot are defined as 0.
	var zero StatsSnapshot
	if zero.HelpRate() != 0 || zero.FastPathRate() != 0 || zero.SuccessRate() != 0 {
		t.Fatal("zero-snapshot rates must be 0")
	}
}

// TestObsSub pins the interval-view contract of ObsSnapshot.Sub, the
// counterpart to StatsSnapshot.Sub: two live snapshots of the same
// manager subtract to exactly the activity between them.
func TestObsSub(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4), WithMetrics())
	obsWorkload(t, m, 4, 100)
	base := m.Observe()
	obsWorkload(t, m, 4, 100)
	cur := m.Observe()
	d := cur.Sub(base)

	if !d.Enabled {
		t.Fatal("delta of enabled snapshots must stay enabled")
	}
	if want := cur.Acquire.Count - base.Acquire.Count; d.Acquire.Count != want {
		t.Fatalf("acquire delta count %d, want %d", d.Acquire.Count, want)
	}
	if want := cur.DelayIters.Count - base.DelayIters.Count; d.DelayIters.Count != want {
		t.Fatalf("delay-iters delta count %d, want %d", d.DelayIters.Count, want)
	}
	if want := cur.AttemptSteps - base.AttemptSteps; d.AttemptSteps != want {
		t.Fatalf("attempt-steps delta %d, want %d", d.AttemptSteps, want)
	}
	if want := cur.DelaySteps - base.DelaySteps; d.DelaySteps != want {
		t.Fatalf("delay-steps delta %d, want %d", d.DelaySteps, want)
	}
	if want := cur.HelpNanos - base.HelpNanos; d.HelpNanos != want {
		t.Fatalf("help-nanos delta %d, want %d", d.HelpNanos, want)
	}
	if s := d.DelayShare(); s < 0 || s > 1 {
		t.Fatalf("delta delay share %v outside [0,1]", s)
	}
	// The interval histogram's quantiles stay within the lifetime max.
	if q := d.Acquire.Quantile(0.99); q > cur.Acquire.Max {
		t.Fatalf("delta p99 %d exceeds lifetime max %d", q, cur.Acquire.Max)
	}
	// Per-lock rows are matched by ID and never exceed the absolutes.
	baseByID := make(map[int]LockAttrib)
	for _, l := range base.Locks {
		baseByID[l.LockID] = l
	}
	for i, l := range d.Locks {
		abs := cur.Locks[i]
		if l.LockID != abs.LockID {
			t.Fatalf("delta lock order diverged: %d vs %d", l.LockID, abs.LockID)
		}
		if want := abs.DelaySteps - baseByID[l.LockID].DelaySteps; l.DelaySteps != want {
			t.Fatalf("lock %d delay-steps delta %d, want %d", l.LockID, l.DelaySteps, want)
		}
	}

	// Disabled snapshots pass through unchanged.
	if z := (ObsSnapshot{}).Sub(base); z.Enabled || z.AttemptSteps != 0 {
		t.Fatalf("disabled delta must stay zero, got %+v", z)
	}
}

// TestStallWatchdogOption drives a contended workload with the fast
// path off and a 1-step delay bound, so delay-point charges must trip
// the watchdog: alerts count, land in the ring with well-formed
// payloads, and attribute to real locks.
func TestStallWatchdogOption(t *testing.T) {
	m := newManager(t, WithUnknownBounds(4), WithFastPath(false),
		WithStallWatchdog(1, 0))
	obsWorkload(t, m, 4, 200)
	os := m.Observe()
	if !os.Enabled {
		t.Fatal("WithStallWatchdog must imply metrics")
	}
	if os.StallAlerts == 0 {
		t.Fatal("1-step delay bound with delays on recorded no alerts")
	}
	if len(os.Alerts) == 0 {
		t.Fatal("alert ring empty despite alerts")
	}
	for _, ev := range os.Alerts {
		if ev.Kind != "alert-delay" && ev.Kind != "alert-help" {
			t.Fatalf("alert with kind %q", ev.Kind)
		}
		if ev.Kind == "alert-delay" && ev.Value <= 1 {
			t.Fatalf("alert-delay carries %d steps, want > bound 1", ev.Value)
		}
		if ev.Time.IsZero() {
			t.Fatal("alert without timestamp")
		}
	}
	var attributed uint64
	for _, l := range os.Locks {
		attributed += l.Alerts
	}
	if attributed != os.StallAlerts {
		t.Fatalf("attributed alerts %d, total %d", attributed, os.StallAlerts)
	}
}

func TestWithStallWatchdogValidation(t *testing.T) {
	if _, err := New(WithUnknownBounds(2), WithStallWatchdog(0, 0)); err == nil {
		t.Fatal("WithStallWatchdog(0, 0) must be rejected")
	}
	if _, err := New(WithUnknownBounds(2), WithStallWatchdog(0, -time.Second)); err == nil {
		t.Fatal("negative help-run bound must be rejected")
	}
}

// TestDoAllocsMetrics pins that turning the full observability stack on
// (histograms + flight recorder) keeps the steady-state Do path
// amortized allocation-free: recording is atomic adds into
// preallocated shards and ring slots. The 'Allocs' name keeps it under
// the CI allocation gate next to TestDoAllocs (the tracing-off case).
func TestDoAllocsMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	m := newManager(t, WithUnknownBounds(4), WithTracing(8))
	l := m.NewLock()
	c := NewCell(uint64(0))
	locks := []*Lock{l}
	body := func(tx *Tx) {
		Put(tx, c, Get(tx, c)+1)
	}
	for i := 0; i < 512; i++ {
		if err := m.Do(locks, 2, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(400, func() {
		if err := m.Do(locks, 2, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.5 {
		t.Fatalf("traced Do averages %.2f allocs/op, want < 0.5", avg)
	}
}
