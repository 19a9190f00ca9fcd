package table_test

import (
	"testing"

	"wflocks/internal/env"
	"wflocks/internal/idem"
	"wflocks/internal/table"
)

// FuzzShardOps drives one small shard through an arbitrary
// insert/delete/lookup sequence decoded from the fuzz input and checks
// the open-addressing invariants against a model map after every
// operation:
//
//   - a lookup finds exactly the model's live keys, with the model's
//     values, and the lock-free probe (LoadFind) agrees with Find;
//   - Find reports a reusable bucket (tombstone or empty) whenever the
//     shard has spare capacity — tombstones left by deletes must be
//     reused, or interleaved delete/insert traffic would exhaust the
//     region;
//   - a full shard (every bucket live) reports free = -1 and nothing
//     else does;
//   - the size cell tracks the model count exactly.
//
// The shard is tiny (8 buckets) and the keyspace (16 keys) is double
// its capacity, so full-shard, tombstone-reuse and wraparound probe
// paths (home buckets near the region end) are all hit by short
// inputs. The seed corpus keeps `go test` (including -short) exercising
// those paths without the fuzz engine.
func FuzzShardOps(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x10, 0x21, 0x02})                                     // insert, delete, lookup
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}) // fill to capacity and beyond
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x01, 0x11, 0x21, 0x31})       // churn two keys
	f.Add([]byte{0x0f, 0x1f, 0x2f, 0x1f, 0x0f, 0x3f, 0x2f, 0x4f})       // tombstone reuse on one key
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 8
		const keyspace = 16
		if len(ops) > 64 {
			ops = ops[:64] // plenty to reach every state; keeps cases fast
		}
		tb := newUintTable(1, capacity)
		e := env.NewNative(0, 1)
		sh := &tb.Shards[0]
		budget := table.Budget(capacity, 1, 1, 2, 10)
		model := map[uint64]uint64{}

		for step, op := range ops {
			k := uint64(op % keyspace)
			v := uint64(step) + 1000
			h := tb.Hash(k)
			home := tb.Home(h)
			switch (op >> 4) % 3 {
			case 0: // upsert
				full := false
				run(t, e, budget, func(r *idem.Run) {
					i, found, free := tb.Find(r, sh, h, home, k)
					switch {
					case found:
						tb.SetVal(r, sh, i, v)
					case free < 0:
						full = true
					default:
						tb.Insert(r, sh, free, h, k, v)
					}
				})
				if full {
					if len(model) != capacity {
						t.Fatalf("step %d: free=-1 with %d/%d live entries", step, len(model), capacity)
					}
				} else {
					model[k] = v
				}
			case 1: // delete
				run(t, e, budget, func(r *idem.Run) {
					if i, found, _ := tb.Find(r, sh, h, home, k); found {
						tb.Remove(r, sh, i)
					}
				})
				delete(model, k)
			case 2: // lookup only — checked below like every other step
			}

			if got := tb.LoadSize(e, sh); int(got) != len(model) {
				t.Fatalf("step %d: size cell %d, model %d", step, got, len(model))
			}
			// Audit the whole keyspace against the model, and the free-
			// bucket contract against the live count.
			run(t, e, 4*budget*keyspace, func(r *idem.Run) {
				for q := uint64(0); q < keyspace; q++ {
					qh := tb.Hash(q)
					i, found, free := tb.Find(r, sh, qh, tb.Home(qh), q)
					want, ok := model[q]
					if found != ok {
						t.Fatalf("step %d: key %d found=%v, model has=%v", step, q, found, ok)
					}
					if found && tb.Val(r, sh, i) != want {
						t.Fatalf("step %d: key %d value %d, model %d", step, q, tb.Val(r, sh, i), want)
					}
					if li, lfound := tb.LoadFind(e, sh, qh, tb.Home(qh), q); lfound != found || (found && li != i) {
						t.Fatalf("step %d: key %d: lock-free probe says (%d, %v), Find (%d, %v)", step, q, li, lfound, i, found)
					}
					if !found {
						if len(model) < capacity && free < 0 {
							t.Fatalf("step %d: key %d has no reusable bucket with %d/%d live (tombstones not reused?)",
								step, q, len(model), capacity)
						}
						if len(model) == capacity && free >= 0 {
							t.Fatalf("step %d: key %d offered free bucket %d in a full shard", step, q, free)
						}
					}
				}
			})
		}
	})
}
