package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// kind names the call a span wraps: a generator's whole round, or one
// call from the benchmark into a layer of the program. Spans are taken
// from outside, by the benchmark's own wrappers; nothing in the program
// is switched on for them.
type kind uint8

const (
	kRound kind = iota
	kPoolEnq
	kPoolDeq
	kCacheGet
	kCachePut
	kMapGet
	kMapUpdate
	kTxnL2
	kLogAppend
	kLogNext
	kTxnL4
	kServeReq
	nKinds
)

var kindNames = [nKinds]string{
	"gen.round", "pool.enq", "pool.deq", "cache.get", "cache.put", "map.get",
	"map.update", "txn.atomic_l2", "log.append", "log.next", "txn.atomic_l4", "serve.request",
}

func (k kind) layer() string { return kindNames[k][:strings.IndexByte(kindNames[k], '.')] }

// span is one timed call: its kind, the generator round it belongs to
// (the identifier the spans of one op share) and its bounds on the
// generators' clock.
type span struct {
	start, end int64
	op         uint64
	k          kind
}

// spanBudget is the number of spans a traced run preallocates, split
// evenly over its generators (32 MB in all). At the workloads' tracing
// strides that holds a 60 s window; spans past it are dropped and
// counted.
const spanBudget = 1 << 20

// tracer is a generator's span buffer. every is the stride of traced
// rounds (0: tracing off); on says whether the current round is traced.
type tracer struct {
	every   uint64
	on      bool
	base    time.Time
	spans   []span
	dropped uint64
}

// now reads the generators' clock in a traced round, and costs nothing
// in any other.
func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.base))
}

// lap records the span [t0, now) in a traced round and returns now, so
// consecutive calls into layers share their clock reads.
func (t *tracer) lap(k kind, op uint64, t0 int64) int64 {
	if !t.on {
		return 0
	}
	t1 := t.now()
	t.add(k, op, t0, t1)
	return t1
}

// add records a span ending at t1, in a traced round only.
func (t *tracer) add(k kind, op uint64, t0, t1 int64) {
	if !t.on {
		return
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{start: t0, end: t1, op: op, k: k})
}

// spanStats summarises the spans that started inside a window: one
// histogram of durations per kind, and each layer's summed span time.
type spanStats struct {
	dur     [nKinds]*hist
	busy    map[string]float64
	dropped uint64
}

func summarise(w *window) *spanStats {
	st := &spanStats{busy: map[string]float64{}}
	for k := range st.dur {
		st.dur[k] = newHist()
	}
	for _, g := range w.gens {
		st.dropped += g.tr.dropped
		for _, s := range g.tr.spans {
			if s.start < w.t0 || s.start >= w.t1 {
				continue
			}
			st.dur[s.k].record(s.end - s.start)
			st.busy[s.k.layer()] += float64(s.end - s.start)
		}
	}
	return st
}

// busyShare is a layer's summed span time over the summed round time.
func (st *spanStats) busyShare(layer string) float64 {
	if st.busy["gen"] == 0 {
		return 0
	}
	return st.busy[layer] / st.busy["gen"]
}

// selfShare is the part of the rounds no child span covers: the
// generator's own work (sampling keys, encoding requests, checking
// answers).
func (st *spanStats) selfShare() float64 {
	var children float64
	for layer, t := range st.busy {
		if layer != "gen" {
			children += t
		}
	}
	if st.busy["gen"] == 0 {
		return 0
	}
	return 1 - children/st.busy["gen"]
}

// writeChromeTrace dumps the spans as Chrome trace-event JSON, one
// thread per generator, loadable in Perfetto.
func writeChromeTrace(path string, w *window) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, g := range w.gens {
		for _, s := range g.tr.spans {
			if !first {
				fmt.Fprint(bw, ",")
			}
			first = false
			fmt.Fprintf(bw, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				kindNames[s.k], s.k.layer(), g.id, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
