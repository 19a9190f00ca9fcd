package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wflocks"
	"wflocks/internal/workload"
)

// Log family: drives a workload.LogScenario against the wflog
// subsystem (sweeping the shard count) and against two baselines — a
// mutex-guarded slice log with per-consumer positions and a
// channel-fan-out broadcaster — in the raw and holder-stall regimes.
//
// Broadcast delivery changes what a stall costs. In the mutex+slice
// design one lock guards the entries and every consumer position, so a
// producer stalled mid-append holds up every subscriber for the stall.
// The channel fan-out moves the serialization into the broadcaster
// goroutine: a stall there — or one slow subscriber filling its buffer
// — head-of-line blocks the whole fan-out. wflog's stalled appender is
// helped past its critical section, so the stall costs only the
// stalled goroutine and (with shards > 1) disturbs only its shard.
//
// Stalls are injected symmetrically on the value-write path, on both
// sides of the log: wflog routes values through StallValueCodec, whose
// Encode draws inside the append critical section (slot write) and
// inside the cursor-advance section (result-cell write, mirroring
// wfqueue's dequeues); the mutex log draws while holding its mutex
// whenever it touches an entry's value, on append and on read; the
// channel log draws in the broadcaster per forwarded entry and in each
// reader beside its receive (a goroutine cannot sleep holding the
// runtime's channel lock — the channel is the stall-tolerant shape,
// exactly as in the queue tables).
//
// Every run audits prefix consistency: each consumer must see every
// producer's entries gaplessly in per-producer order (keyed appends
// pin a producer to one shard, so the order is a delivery guarantee,
// not a scheduling accident).

// laggardEvery/laggardNap is the lagging-consumer schedule: a laggard
// sleeps for laggardNap every laggardEvery reads, stretching retention
// behind it without ever stopping.
const (
	laggardEvery = 32
	laggardNap   = 500 * time.Microsecond
)

// MutexSliceLog is the blocking baseline a hand-rolled broadcast log
// uses: one sync.Mutex guarding an entry slice plus per-consumer read
// positions, compacting from the front once capacity is reached and no
// consumer still needs the prefix. stall (which may be nil) is drawn
// while the mutex is held whenever an entry's value is touched —
// appends and reads alike — mirroring wflog's in-critical-section
// encodes on both sides.
type MutexSliceLog struct {
	mu    sync.Mutex
	buf   []uint64
	base  uint64
	cap   int
	pos   []uint64
	stall *StallPoint
}

// NewMutexSliceLog creates a baseline log retaining at most capacity
// entries.
func NewMutexSliceLog(capacity int, stall *StallPoint) *MutexSliceLog {
	return &MutexSliceLog{cap: capacity, stall: stall}
}

// TryAppend appends v, compacting consumed prefix first when full;
// it reports false when the slowest consumer pins the whole window.
func (l *MutexSliceLog) TryAppend(_, v uint64) bool {
	l.mu.Lock()
	if len(l.buf) >= l.cap {
		min := l.base + uint64(len(l.buf))
		for _, p := range l.pos {
			if p < min {
				min = p
			}
		}
		if min == l.base {
			l.mu.Unlock()
			return false
		}
		drop := min - l.base
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.base = min
	}
	l.stall.Hit()
	l.buf = append(l.buf, v)
	l.mu.Unlock()
	return true
}

// Len reports the retained-entry count.
func (l *MutexSliceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// NewReader attaches a consumer at the current head (the oldest
// retained entry), returning its reader.
func (l *MutexSliceLog) NewReader() *MutexSliceReader {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pos = append(l.pos, l.base)
	return &MutexSliceReader{log: l, idx: len(l.pos) - 1}
}

// MutexSliceReader is one consumer's position in a MutexSliceLog.
type MutexSliceReader struct {
	log *MutexSliceLog
	idx int
}

// Close detaches the reader: its position stops pinning compaction and
// it must not be read again.
func (r *MutexSliceReader) Close() {
	l := r.log
	l.mu.Lock()
	l.pos[r.idx] = ^uint64(0)
	l.mu.Unlock()
}

// TryNext delivers the reader's next entry, reporting false at the
// tail.
func (r *MutexSliceReader) TryNext() (uint64, bool) {
	l := r.log
	l.mu.Lock()
	p := l.pos[r.idx]
	if p >= l.base+uint64(len(l.buf)) {
		l.mu.Unlock()
		return 0, false
	}
	l.stall.Hit()
	v := l.buf[p-l.base]
	l.pos[r.idx] = p + 1
	l.mu.Unlock()
	return v, true
}

// ChanFanLog is the channel-idiom baseline: producers send into one
// input channel and a broadcaster goroutine forwards every entry to a
// buffered per-consumer channel with blocking sends — the standard Go
// pub/sub shape. Its failure mode is structural: one slow consumer
// fills its buffer and the blocking fan-out send head-of-line blocks
// every other consumer. stall (which may be nil) is drawn in the
// broadcaster once per forwarded entry.
type ChanFanLog struct {
	in    chan uint64
	outs  []chan uint64
	stall *StallPoint
	dist  atomic.Uint64
	done  chan struct{}
}

// NewChanFanLog creates a fan-out over the given consumer count; the
// input and every consumer buffer hold capacity entries.
func NewChanFanLog(capacity, consumers int, stall *StallPoint) *ChanFanLog {
	l := &ChanFanLog{
		in:    make(chan uint64, capacity),
		outs:  make([]chan uint64, consumers),
		stall: stall,
		done:  make(chan struct{}),
	}
	for i := range l.outs {
		l.outs[i] = make(chan uint64, capacity)
	}
	go l.broadcast()
	return l
}

func (l *ChanFanLog) broadcast() {
	defer close(l.done)
	for v := range l.in {
		l.stall.Hit()
		for _, out := range l.outs {
			out <- v
		}
		l.dist.Add(1)
	}
}

// TryAppend submits v to the broadcaster, reporting false when the
// input buffer is full.
func (l *ChanFanLog) TryAppend(_, v uint64) bool {
	select {
	case l.in <- v:
		return true
	default:
		return false
	}
}

// Reader returns consumer i's non-blocking receive; the stall is drawn
// beside the receive, outside the runtime's channel lock.
func (l *ChanFanLog) Reader(i int) func() (uint64, bool) {
	ch := l.outs[i]
	return func() (uint64, bool) {
		select {
		case v := <-ch:
			l.stall.Hit()
			return v, true
		default:
			return 0, false
		}
	}
}

// Distributed reports how many entries the broadcaster has forwarded to
// every consumer — the replay runs' prefill barrier.
func (l *ChanFanLog) Distributed() uint64 { return l.dist.Load() }

// Close stops the broadcaster after it drains the input.
func (l *ChanFanLog) Close() {
	close(l.in)
	<-l.done
}

// NewWfLog builds a Log sized for the scenario at the given shard count
// (aggregate capacity is held constant while per-shard contention
// shrinks), values drawing from sp, with a consumer-slot pool matching
// the scenario topology. Like the queue tier it runs the
// unknown-bounds adaptive-delay variant: the per-shard point
// contention is far below the goroutine count. procs bounds the
// goroutines that will contend (see NewManager).
func NewWfLog(sc *workload.LogScenario, shards, procs int, sp *StallPoint, extra ...wflocks.Option) (*wflocks.Log[uint64], *wflocks.Manager, error) {
	budget := wflocks.LogCriticalSteps(1, 1, sc.Consumers, sc.Segment)
	m, err := NewManager(VariantAdaptive, procs, 2, budget, extra...)
	if err != nil {
		return nil, nil, err
	}
	lg, err := wflocks.NewLogOf[uint64](m, valueCodec(sp),
		wflocks.WithLogShards(shards), wflocks.WithLogCapacity(sc.Capacity),
		wflocks.WithLogSegment(sc.Segment), wflocks.WithLogBatch(1),
		wflocks.WithLogConsumers(sc.Consumers))
	return lg, m, err
}

// logImpl is one implementation wired for a run: an appender, one
// pre-attached reader per consumer, and lifecycle hooks.
type logImpl struct {
	append func(key, v uint64) bool
	read   []func() (uint64, bool)
	// settle, when non-nil, blocks until a replay prefill of total
	// entries is visible to every reader (the channel baseline's
	// broadcaster is asynchronous).
	settle func(total int)
	// close, when non-nil, releases the implementation's resources.
	close func()
	// wf, when non-nil, is the wflog behind the implementation: its
	// stats fill the retention and attempt cells.
	wf *wflocks.Log[uint64]
	// lagPeak is wf's attached-cursor backlog sampled by atPeak.
	lagPeak int
}

// atPeak samples retention at the moment the producers finish — the
// lagmax column's high-water mark.
func (im *logImpl) atPeak() {
	if im.wf != nil {
		im.lagPeak = im.wf.Stats().MaxLag
	}
}

// logFamily compares the wflog shard sweep with the mutex+slice and
// channel-fan-out baselines, raw and stalled: delivered throughput,
// retention and contention.
func logFamily(sc *workload.LogScenario, scale Scale) (*family, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	itemsPer := scale.pick(200, 2000)
	total := sc.Producers * itemsPer
	if sc.Replay && total > sc.Capacity {
		return nil, fmt.Errorf("%s: replay prefill %d exceeds capacity %d", sc.Name, total, sc.Capacity)
	}
	shape := "live"
	if sc.Replay {
		shape = "replay"
	}
	f := &family{
		title: fmt.Sprintf("%s: %d producers × %d items broadcast to %d consumers (%d lagging), cap %d, segment %d, %s",
			sc.Name, sc.Producers, itemsPer, sc.Consumers, sc.Laggards, sc.Capacity, sc.Segment, shape),
		header: append([]string{"impl", "shards", "stall", "deliv/sec", "trimmed", "lagmax", "success", "attempts/op"}, obsHeader...),
		notes: []string{
			"deliv/sec counts consumer-side deliveries (every consumer reads the whole stream); every run audits gapless per-producer delivery order",
			"raw regime: the mutex+slice and channel fan-out win on constant factors — every wflog attempt pays the adaptive variant's padded delays",
			"stall regime: appenders and readers stall mid-value-touch (" + fmt.Sprintf("%v every %d touches", StallDur, StallPeriod) + "); a stalled mutex-log holder — appender or subscriber — blocks everyone, a stalled chanfan broadcaster head-of-line blocks the fan-out, a stalled wflog section is helped past and disturbs one shard",
			"trimmed counts entries reclaimed in-append behind the slowest cursor; lagmax samples the largest cursor backlog at producer completion",
		},
		stall: true,
		obs:   true,
	}
	// logInstance is what every log row shares: a replay scenario's
	// prefill (unmeasured and unstalled — sweep arms the stall point
	// afterwards), then the role-based loop over im.
	logInstance := func(im *logImpl, mgrs ...*wflocks.Manager) *instance {
		produce := func(w int) {
			for i := 0; i < itemsPer; i++ {
				v := uint64(w)<<32 | uint64(i+1)
				for !im.append(uint64(w), v) {
					runtime.Gosched()
				}
			}
		}
		if sc.Replay {
			for w := 0; w < sc.Producers; w++ {
				produce(w)
			}
			if im.settle != nil {
				im.settle(total)
			}
			im.atPeak()
		}
		in := &instance{
			mgrs: mgrs,
			run:  func() error { return runBroadcast(sc, im, itemsPer, produce) },
			cols: func(r measured) []string {
				trimmed, lagmax, success, attemptsPer := "-", "-", "-", "-"
				if im.wf != nil {
					st := im.wf.Stats()
					trimmed, lagmax = fmt.Sprint(st.Trimmed), fmt.Sprint(im.lagPeak)
					// The run's ops: every cursor read, plus the appends
					// unless a replay made them before the run.
					ops := st.Reads
					if !sc.Replay {
						ops += uint64(total)
					}
					success, attemptsPer = r.attemptCols(ops)
				}
				return []string{r.perSec(sc.Consumers * total), trimmed, lagmax, success, attemptsPer}
			},
		}
		if im.close != nil {
			in.close = func() error { im.close(); return nil }
		}
		return in
	}
	procs := sc.Producers + sc.Consumers + 4
	for _, shards := range shardSweep {
		f.add(func(sp *StallPoint) (*instance, error) {
			lg, m, err := NewWfLog(sc, shards, procs, sp, wflocks.WithMetrics())
			if err != nil {
				return nil, err
			}
			if sc.Replay && itemsPer > lg.Cap()/shards {
				// Keyed appends pin a producer to one shard, so a replay
				// prefill must fit per shard, not just in aggregate.
				return nil, fmt.Errorf("%s: replay prefill %d per producer exceeds per-shard capacity %d at %d shards",
					sc.Name, itemsPer, lg.Cap()/shards, shards)
			}
			im := &logImpl{append: lg.TryAppendKeyed, wf: lg}
			for c := 0; c < sc.Consumers; c++ {
				cur, err := lg.NewCursor()
				if err != nil {
					return nil, err
				}
				im.read = append(im.read, cur.TryNext)
			}
			return logInstance(im, m), nil
		}, "wflog", fmt.Sprint(shards))
	}
	f.add(func(sp *StallPoint) (*instance, error) {
		ml := NewMutexSliceLog(sc.Capacity, sp)
		im := &logImpl{append: ml.TryAppend}
		for c := 0; c < sc.Consumers; c++ {
			im.read = append(im.read, ml.NewReader().TryNext)
		}
		return logInstance(im), nil
	}, "mutexslice", "1")
	f.add(func(sp *StallPoint) (*instance, error) {
		cf := NewChanFanLog(sc.Capacity, sc.Consumers, sp)
		im := &logImpl{append: cf.TryAppend, close: cf.Close}
		for c := 0; c < sc.Consumers; c++ {
			im.read = append(im.read, cf.Reader(c))
		}
		im.settle = func(total int) {
			for cf.Distributed() < uint64(total) {
				runtime.Gosched()
			}
		}
		return logInstance(im), nil
	}, "chanfan", "-")
	return f, nil
}

// runBroadcast is the log family's role-based loop: producers append
// keyed by their id (a replay scenario's were appended before the
// run), every consumer reads the whole stream through its own reader,
// and each delivery is audited for gapless per-producer order.
func runBroadcast(sc *workload.LogScenario, im *logImpl, itemsPer int, produce func(w int)) error {
	total := sc.Producers * itemsPer
	var auditMu sync.Mutex
	var auditErr error
	var pwg, cwg sync.WaitGroup
	if !sc.Replay {
		for w := 0; w < sc.Producers; w++ {
			pwg.Add(1)
			go func(w int) {
				defer pwg.Done()
				produce(w)
			}(w)
		}
	}
	for c := 0; c < sc.Consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			read := im.read[c]
			last := make([]uint32, sc.Producers)
			for reads := 0; reads < total; {
				v, ok := read()
				if !ok {
					runtime.Gosched()
					continue
				}
				pid := int(v >> 32)
				seq := uint32(v)
				if pid >= sc.Producers || seq != last[pid]+1 {
					auditMu.Lock()
					if auditErr == nil {
						auditErr = fmt.Errorf("%s consumer %d: entry %d/%d breaks prefix order (want seq %d)",
							sc.Name, c, pid, seq, last[pid]+1)
					}
					auditMu.Unlock()
					return
				}
				last[pid] = seq
				reads++
				if c < sc.Laggards && reads%laggardEvery == 0 {
					time.Sleep(laggardNap)
				}
			}
		}(c)
	}
	if !sc.Replay {
		pwg.Wait()
		im.atPeak()
	}
	cwg.Wait()
	return auditErr
}
