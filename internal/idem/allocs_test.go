package idem

import (
	"runtime"
	"testing"

	"wflocks/internal/env"
)

// raceEnabled reports whether the race detector is compiled in; see
// race_test.go.
var raceEnabled bool

// opsFrame is a thunk that performs n Reads, or n Writes, of c.
type opsFrame struct {
	c     *Cell
	n     int
	write bool
}

func (f *opsFrame) RunThunk(r *Run) {
	for i := range f.n {
		if f.write {
			r.Write(f.c, uint64(i))
		} else {
			r.Read(f.c)
		}
	}
}

// TestLogAllocsBytesPerOp gates what one logged operation allocates
// inside the first log segment: the bytes of an execution of
// firstSegOps operations less those of an empty one with the same
// budget, per operation. A Read logs the box it observed and allocates
// nothing; a Write draws a descriptor box (40 B) and its commit box
// (16 B), from chunks whose bytes fill their size class; each chunk
// leaves less than one object's bytes unused, which puts a Write at
// 56.2 B.
func TestLogAllocsBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := env.NewNative(0, 1)
	bytesPerExec := func(f *opsFrame) float64 {
		run := func() {
			var x Exec
			x.Init(e, f, firstSegOps)
			x.Execute(e)
		}
		for range 512 {
			run()
		}
		const execs = 4096
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range execs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / execs
	}
	c := NewCell(0)
	for _, tc := range []struct {
		name  string
		write bool
		max   float64
	}{
		{"Read", false, 1},
		{"Write", true, 56.5},
	} {
		empty := bytesPerExec(&opsFrame{c: c})
		full := bytesPerExec(&opsFrame{c: c, n: firstSegOps, write: tc.write})
		perOp := (full - empty) / firstSegOps
		t.Logf("%s: %.1f B/op (empty exec %.1f B)", tc.name, perOp, empty)
		if perOp > tc.max {
			t.Errorf("a %s inside the first log segment allocates %.1f B/op, want <= %.0f", tc.name, perOp, tc.max)
		}
	}
}
