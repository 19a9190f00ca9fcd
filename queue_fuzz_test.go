package wflocks

import (
	"context"
	"testing"
)

// FuzzQueueOps drives one small queue through an arbitrary
// enqueue/dequeue/batch sequence decoded from the fuzz input and
// checks the ring's index arithmetic against a slice model after every
// operation, mirroring internal/table's FuzzShardOps:
//
//   - TryEnqueue fails exactly when the model is full and TryDequeue
//     exactly when it is empty (full/empty transitions);
//   - dequeued values replay the model in FIFO order;
//   - Len and the Stats counters track the model exactly;
//   - the per-slot sequence cells satisfy the occupancy protocol at
//     every step — slot s holds ticket+1 while occupied and its next
//     enqueue ticket while free — which is what pins wraparound and
//     sequence-number reuse across laps (a stale or double-applied
//     index write breaks the invariant immediately).
//
// The queue is tiny (4 slots) so short inputs wrap the ring several
// times; the seed corpus keeps `go test` (including -short) exercising
// the wrap/full/empty paths without the fuzz engine.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x00, 0x01})                         // fill/drain churn
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x01, 0x01}) // to full, to empty
	f.Add([]byte{0x02, 0x03, 0x02, 0x03, 0x02, 0x03})                         // batch churn
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01,
		0x00, 0x01, 0x00, 0x01}) // lap the ring with length 1
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 4
		const batch = 3
		m, err := New(
			WithKappa(2),
			WithMaxLocks(1),
			WithMaxCriticalSteps(QueueCriticalSteps(1, batch)),
			WithDelayConstants(1, 1),
		)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue[uint64](m, WithQueueCapacity(capacity), WithQueueBatch(batch))
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 64 {
			ops = ops[:64] // plenty to reach every state; keeps cases fast
		}
		ctx := context.Background()
		var model []uint64   // pending values, FIFO
		var mHead, mTail int // model tickets (total dequeues/enqueues)
		var fulls, empts int // expected reject counters
		for step, op := range ops {
			v := uint64(step) + 1000
			switch op % 4 {
			case 0: // TryEnqueue
				ok := q.TryEnqueue(v)
				if wantOK := len(model) < capacity; ok != wantOK {
					t.Fatalf("step %d: TryEnqueue = %v with %d/%d queued", step, ok, len(model), capacity)
				}
				if ok {
					model = append(model, v)
					mTail++
				} else {
					fulls++
				}
			case 1: // TryDequeue
				got, ok := q.TryDequeue()
				if wantOK := len(model) > 0; ok != wantOK {
					t.Fatalf("step %d: TryDequeue = %v with %d queued", step, ok, len(model))
				}
				if ok {
					if got != model[0] {
						t.Fatalf("step %d: dequeued %d, model head %d (FIFO broken)", step, got, model[0])
					}
					model = model[1:]
					mHead++
				} else {
					empts++
				}
			case 2: // EnqueueBatch of whatever fits (blocking otherwise)
				free := capacity - len(model)
				n := batch
				if n > free {
					n = free
				}
				if n == 0 {
					continue
				}
				vs := make([]uint64, n)
				for i := range vs {
					vs[i] = v + uint64(i)*7
				}
				moved, err := q.EnqueueBatch(ctx, vs)
				if err != nil || moved != n {
					t.Fatalf("step %d: EnqueueBatch = (%d, %v), want (%d, nil)", step, moved, err, n)
				}
				model = append(model, vs...)
				mTail += n
			case 3: // DequeueBatch of up to batch (skip when empty: it would block)
				if len(model) == 0 {
					continue
				}
				if len(model) < batch {
					// The short chunk observes the empty ring once.
					empts++
				}
				got, err := q.DequeueBatch(ctx, batch)
				if err != nil {
					t.Fatalf("step %d: DequeueBatch: %v", step, err)
				}
				n := batch
				if n > len(model) {
					n = len(model)
				}
				if len(got) != n {
					t.Fatalf("step %d: DequeueBatch moved %d, want %d", step, len(got), n)
				}
				for i, g := range got {
					if g != model[i] {
						t.Fatalf("step %d: batch[%d] = %d, model %d (FIFO broken)", step, i, g, model[i])
					}
				}
				model = model[n:]
				mHead += n
			}

			if got := q.Len(); got != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, got, len(model))
			}
			auditRing(t, m, &q.pool.rings[0], mHead, mTail, model)
			s := q.Stats()
			if int(s.Enqueues) != mTail || int(s.Dequeues) != mHead {
				t.Fatalf("step %d: counters = %d/%d, model %d/%d", step, s.Enqueues, s.Dequeues, mTail, mHead)
			}
			if int(s.FullRejects) != fulls || int(s.EmptyRejects) != empts {
				t.Fatalf("step %d: rejects = %d/%d, model %d/%d", step, s.FullRejects, s.EmptyRejects, fulls, empts)
			}
		}
	})
}

// auditRing verifies the ring's cell-resident state against the model
// at quiescence: ticket cells, slot values in FIFO positions, and the
// occupancy sequence protocol (slot s reads ticket+1 while it holds
// ticket's element, and its next enqueue ticket while free).
func auditRing(t *testing.T, m *Manager, r *qring[uint64], mHead, mTail int, model []uint64) {
	t.Helper()
	p := m.Acquire()
	defer m.Release(p)
	if h := r.head.Get(p); h != uint64(mHead) {
		t.Fatalf("head ticket = %d, model %d", h, mHead)
	}
	if tt := r.tail.Get(p); tt != uint64(mTail) {
		t.Fatalf("tail ticket = %d, model %d", tt, mTail)
	}
	// Occupied tickets [head, tail): element and sequence.
	for k := 0; k < len(model); k++ {
		pos := uint64(mHead + k)
		s := int(pos & r.mask)
		if got := r.vals[s].Get(p); got != model[k] {
			t.Fatalf("slot %d (ticket %d) = %d, model %d", s, pos, got, model[k])
		}
		if seq := r.seq[s].Get(p); seq != pos+1 {
			t.Fatalf("occupied slot %d (ticket %d) seq = %d, want %d", s, pos, seq, pos+1)
		}
	}
	// Free tickets [tail, head+capacity): each slot awaits its next
	// enqueue ticket — the sequence-number-reuse invariant across laps.
	for pos := uint64(mTail); pos < uint64(mHead+r.capacity); pos++ {
		s := int(pos & r.mask)
		if seq := r.seq[s].Get(p); seq != pos {
			t.Fatalf("free slot %d seq = %d, want next ticket %d", s, seq, pos)
		}
	}
}
