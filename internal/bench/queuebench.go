package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wflocks"
	"wflocks/internal/workload"
)

// Queue family: drives a workload.QueueScenario against the
// wfqueue subsystem (the single-ring Queue and the sharded WorkPool,
// sweeping the shard count) and against two baselines — a buffered Go
// channel and a mutex+ring — in the raw and holder-stall regimes.
//
// In the raw regime the baselines win on constant factors: a channel
// send is a runtime-assisted handoff and a mutex+ring op is a handful
// of instructions, while every wait-free attempt pays the paper's
// fixed delays (c·κ²L²T own steps). The interesting regime is the
// paper's: producers and consumers that stall mid-operation. A
// stalled mutex+ring holder blocks the whole queue for the stall; a
// stalled wfqueue winner is helped, so stalls overlap instead of
// serializing, and the sharded WorkPool additionally confines each
// stall to one shard. The channel baseline deserves an honest note:
// a goroutine cannot sleep while holding the channel's internal lock,
// so its stalls are drawn just outside the send/receive — channels
// are inherently stall-tolerant, and the stall regime mainly measures
// their loss of the stalled goroutine's own throughput. The
// comparison the regime isolates is wfqueue vs the mutex+ring, the
// design a hand-rolled bounded queue actually uses.
//
// Every run audits conservation: the sum of consumed values must
// equal the sum produced, whatever the interleaving.

// benchQueue is the uniform surface the queue drivers need; all four
// implementations provide it.
type benchQueue interface {
	TryEnqueue(v uint64) bool
	TryDequeue() (uint64, bool)
}

// ChanQueue adapts a buffered channel. Stalls are drawn outside the
// channel operation — the runtime's channel lock cannot be held across
// a user-code sleep — which is precisely why the channel is the
// stall-tolerant baseline (see the file comment).
type ChanQueue struct {
	ch    chan uint64
	stall *StallPoint
}

// NewChanQueue creates a channel baseline with the given capacity.
// stall (which may be nil) is drawn once per operation, outside the
// channel op.
func NewChanQueue(capacity int, stall *StallPoint) *ChanQueue {
	return &ChanQueue{ch: make(chan uint64, capacity), stall: stall}
}

// TryEnqueue sends v, reporting false when the buffer is full.
func (q *ChanQueue) TryEnqueue(v uint64) bool {
	q.stall.Hit()
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// TryDequeue receives, reporting false when the buffer is empty.
func (q *ChanQueue) TryDequeue() (uint64, bool) {
	q.stall.Hit()
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

// MutexRing is the blocking baseline a hand-rolled bounded MPMC queue
// uses: one sync.Mutex guarding a ring buffer with head/tail indices.
// stall (which may be nil) is drawn while the mutex is held whenever a
// slot's value is touched, mirroring wfqueue's in-critical-section
// encodes; a stalled holder blocks every producer and consumer for
// the stall.
type MutexRing struct {
	mu    sync.Mutex
	buf   []uint64
	head  uint64
	tail  uint64
	stall *StallPoint
}

// NewMutexRing creates a baseline ring with the given capacity
// (rounded up to a power of two, matching wfqueue).
func NewMutexRing(capacity int, stall *StallPoint) *MutexRing {
	return &MutexRing{buf: make([]uint64, nextPow2(capacity)), stall: stall}
}

// TryEnqueue appends v, reporting false when the ring is full.
func (q *MutexRing) TryEnqueue(v uint64) bool {
	q.mu.Lock()
	if q.tail-q.head >= uint64(len(q.buf)) {
		q.mu.Unlock()
		return false
	}
	q.stall.Hit()
	q.buf[q.tail&uint64(len(q.buf)-1)] = v
	q.tail++
	q.mu.Unlock()
	return true
}

// TryDequeue pops the oldest element, reporting false when empty.
func (q *MutexRing) TryDequeue() (uint64, bool) {
	q.mu.Lock()
	if q.head == q.tail {
		q.mu.Unlock()
		return 0, false
	}
	q.stall.Hit()
	v := q.buf[q.head&uint64(len(q.buf)-1)]
	q.head++
	q.mu.Unlock()
	return v, true
}

// Len reports the occupancy.
func (q *MutexRing) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.tail - q.head)
}

// Queue benchmark managers run the unknown-bounds (Section 6.2)
// variant: the queue's per-lock point contention after sharding is far
// below the worker count, and the adaptive algorithm's
// pad-to-power-of-two delays track the actual contention instead of
// the worst-case fixed κ²L²T — the paper's own answer (Theorem 6.10,
// reproduced by E5/E11) to exactly this gap, at the price of a log
// factor in the success bound.

// NewWfQueue builds a single-ring Queue of the given capacity, values
// drawing from sp, returning the manager alongside for the run's
// observability columns. procs bounds the goroutines that will contend
// (see NewManager).
func NewWfQueue(capacity, procs int, sp *StallPoint, extra ...wflocks.Option) (*wflocks.Queue[uint64], *wflocks.Manager, error) {
	m, err := NewManager(VariantAdaptive, procs, 1, wflocks.QueueCriticalSteps(1, 1), extra...)
	if err != nil {
		return nil, nil, err
	}
	q, err := wflocks.NewQueueOf[uint64](m, valueCodec(sp),
		wflocks.WithQueueCapacity(capacity), wflocks.WithQueueBatch(1))
	return q, m, err
}

// NewWfPool builds a WorkPool with the given shard count; capacity is
// the pool total, so a shard sweep holds aggregate capacity constant
// while per-shard contention shrinks.
func NewWfPool(capacity, shards, procs int, sp *StallPoint, extra ...wflocks.Option) (*wflocks.WorkPool[uint64], *wflocks.Manager, error) {
	m, err := NewManager(VariantAdaptive, procs, 2, wflocks.WorkPoolCriticalSteps(1, 1), extra...)
	if err != nil {
		return nil, nil, err
	}
	wp, err := wflocks.NewWorkPoolOf[uint64](m, valueCodec(sp),
		wflocks.WithPoolShards(shards), wflocks.WithPoolCapacity(capacity),
		wflocks.WithPoolBatch(1))
	return wp, m, err
}

// queueFamily compares wfqueue, the WorkPool shard sweep, and the
// channel and mutex+ring baselines, raw and stalled: throughput, steal
// traffic and contention.
func queueFamily(sc *workload.QueueScenario, scale Scale) (*family, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// At least 8 workers, so the mpmc scenario has real many-to-many
	// contention (and enough runnable competitors to help stalled
	// winners) even on small machines.
	workers := workersAtLeast(8)
	producers, consumers, moversPer := sc.Split(workers)
	itemsPer := scale.pick(200, 2000)
	items := producers * itemsPer
	f := &family{
		title: fmt.Sprintf("%s: %d stage(s), cap %d, %d producers × %d items, %d consumers",
			sc.Name, sc.Stages, sc.Capacity, producers, itemsPer, consumers),
		header: append([]string{"impl", "shards", "stall", "items/sec", "steals", "success", "attempts/item", "balance"}, obsHeader...),
		notes: []string{
			"raw regime: the channel and mutex+ring win on constant factors — every wfqueue attempt pays the adaptive variant's padded delays (unknown-bounds mode, Theorem 6.10; contention-proportional rather than fixed κ²L²T)",
			"stall regime: producers/consumers stall mid-operation (" + fmt.Sprintf("%v every %d value writes", StallDur, StallPeriod) + "); helpers absorb wfqueue's stalls, the mutex+ring serializes them",
			"the channel draws its stalls outside the channel op (no user-held lock exists): channels are inherently stall-tolerant, so the stall rows isolate wfqueue vs mutex+ring",
			"success is wins/attempts over the wait-free lock attempts; steals counts elements WorkPool consumers migrated from other shards",
		},
		stall: true,
		obs:   true,
	}
	// queueRow is one implementation's row: a pipeline of sc.Stages
	// queues from mk (each wait-free stage on its own fresh manager),
	// run by the role-based loop.
	queueRow := func(name, param string, mk func(sp *StallPoint) (benchQueue, *wflocks.Manager, error)) {
		f.add(func(sp *StallPoint) (*instance, error) {
			in := &instance{}
			queues := make([]benchQueue, sc.Stages)
			for i := range queues {
				q, m, err := mk(sp)
				if err != nil {
					return nil, err
				}
				queues[i] = q
				if m != nil {
					in.mgrs = append(in.mgrs, m)
				}
			}
			in.run = func() error { return runPipeline(sc, queues, producers, consumers, moversPer, itemsPer) }
			in.cols = func(r measured) []string {
				// Pools report steals summed, and the worst balance,
				// over the stages.
				steals, balance := "-", "-"
				var stolen uint64
				worst := 1.0
				for _, q := range queues {
					if wp, ok := q.(*wflocks.WorkPool[uint64]); ok {
						s := wp.Stats()
						stolen += s.Steals
						worst = min(worst, s.Balance)
						steals, balance = fmt.Sprint(stolen), fmt.Sprintf("%.3f", worst)
					}
				}
				// An item is one enqueue plus one dequeue (plus any
				// full/empty probes and, for pools, steal raids), so the
				// uncontended floor for attempts/item is 2 per traversed
				// stage.
				success, attemptsPer := r.attemptCols(uint64(items))
				return []string{r.perSec(items), steals, success, attemptsPer, balance}
			}
			return in, nil
		}, name, param)
	}
	queueRow("wfqueue", "1", func(sp *StallPoint) (benchQueue, *wflocks.Manager, error) {
		return NewWfQueue(sc.Capacity, workers+2, sp, wflocks.WithMetrics())
	})
	for _, shards := range shardSweep {
		queueRow("workpool", fmt.Sprint(shards), func(sp *StallPoint) (benchQueue, *wflocks.Manager, error) {
			return NewWfPool(sc.Capacity, shards, workers+2, sp, wflocks.WithMetrics())
		})
	}
	queueRow("channel", "-", func(sp *StallPoint) (benchQueue, *wflocks.Manager, error) {
		return NewChanQueue(sc.Capacity, sp), nil, nil
	})
	queueRow("mutexring", "1", func(sp *StallPoint) (benchQueue, *wflocks.Manager, error) {
		return NewMutexRing(sc.Capacity, sp), nil, nil
	})
	return f, nil
}

// runPipeline is the queue family's role-based loop: producers feed
// the first queue, movers shuttle across each stage boundary,
// consumers drain the last, and the sum consumed must equal the sum
// produced, whatever the interleaving.
func runPipeline(sc *workload.QueueScenario, queues []benchQueue, producers, consumers, moversPer, itemsPer int) error {
	total := producers * itemsPer
	var wantSum atomic.Uint64
	var gotSum atomic.Uint64
	// moved[i] counts items that have left queue i; stage workers stop
	// when their upstream total is through.
	moved := make([]atomic.Uint64, sc.Stages)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < itemsPer; i++ {
				v := uint64(w*itemsPer+i) + 1
				wantSum.Add(v)
				for !queues[0].TryEnqueue(v) {
					runtime.Gosched()
				}
			}
		}(w)
	}
	for b := 1; b < sc.Stages; b++ {
		for w := 0; w < moversPer; w++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				for {
					if moved[b-1].Load() >= uint64(total) {
						return
					}
					if v, ok := queues[b-1].TryDequeue(); ok {
						moved[b-1].Add(1)
						for !queues[b].TryEnqueue(v) {
							runtime.Gosched()
						}
					} else {
						runtime.Gosched()
					}
				}
			}(b)
		}
	}
	last := sc.Stages - 1
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if moved[last].Load() >= uint64(total) {
					return
				}
				if v, ok := queues[last].TryDequeue(); ok {
					moved[last].Add(1)
					gotSum.Add(v)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	if gotSum.Load() != wantSum.Load() {
		return fmt.Errorf("%s: conservation violated: consumed sum %d, produced sum %d",
			sc.Name, gotSum.Load(), wantSum.Load())
	}
	return nil
}
