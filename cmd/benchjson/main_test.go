package main

import (
	"math"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: wflocks
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDoUncontended-8         	   10000	      1000 ns/op	      48 B/op	       1 allocs/op
BenchmarkDoUncontended-8         	   10000	      3000 ns/op	      48 B/op	       3 allocs/op
BenchmarkMap/wfmap/shards=8-8    	     500	    141283 ns/op	    1763 B/op	      46 allocs/op
BenchmarkCache/cache:zipf-8      	     300	      3662 ns/op	         0.9312 hitrate	     736 B/op	      11 allocs/op
BenchmarkCache/cache:zipf-8      	     300	      3662 ns/op	         0.9288 hitrate	     736 B/op	      11 allocs/op
BenchmarkServe/backend=cache-8   	     200	     21700 ns/op	         2.000 attempts/req	    5120 B/op	      60 allocs/op
BenchmarkE3Philosophers-8        	       1	 123456789 ns/op
PASS
ok  	wflocks	1.224s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.Pkg != "wflocks" {
		t.Fatalf("header = %q/%q/%q", snap.Goos, snap.Goarch, snap.Pkg)
	}
	if len(snap.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(snap.Benchmarks))
	}
	// Repeated samples average; the GOMAXPROCS suffix is stripped so
	// baselines from machines with different core counts still match.
	do := snap.Benchmarks["DoUncontended"]
	if do.Samples != 2 || math.Abs(do.NsPerOp-2000) > 1e-9 || math.Abs(do.AllocsPerOp-2) > 1e-9 {
		t.Fatalf("DoUncontended = %+v, want mean of 2 samples", do)
	}
	// Subtests keep their full path, minus the proc suffix only.
	mp := snap.Benchmarks["Map/wfmap/shards=8"]
	if mp.Samples != 1 || mp.NsPerOp != 141283 {
		t.Fatalf("Map = %+v", mp)
	}
	// A metric the benchmark reports itself sits between ns/op and the
	// memory columns: it must not hide them, and it is carried, averaged
	// like every other column, under its unit.
	if c := snap.Benchmarks["Cache/cache:zipf"]; c.NsPerOp != 3662 || c.BPerOp != 736 || c.AllocsPerOp != 11 ||
		len(c.Metrics) != 1 || math.Abs(c.Metrics["hitrate"]-0.93) > 1e-9 {
		t.Fatalf("Cache = %+v", c)
	}
	if s := snap.Benchmarks["Serve/backend=cache"]; s.Metrics["attempts/req"] != 2 || s.AllocsPerOp != 60 {
		t.Fatalf("Serve = %+v", s)
	}
	if do.Metrics != nil {
		t.Fatalf("DoUncontended carries metrics it never reported: %+v", do.Metrics)
	}
	// Lines without allocs still parse.
	e3 := snap.Benchmarks["E3Philosophers"]
	if e3.NsPerOp != 123456789 || e3.AllocsPerOp != 0 {
		t.Fatalf("E3 = %+v", e3)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok wflocks 1s\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestDiff(t *testing.T) {
	base := &Snapshot{Benchmarks: map[string]Result{
		"A-8": {NsPerOp: 100, BPerOp: 16504, AllocsPerOp: 27},
		"B-8": {NsPerOp: 200},
	}}
	cur := &Snapshot{Benchmarks: map[string]Result{
		"A-8": {NsPerOp: 150, BPerOp: 1328, AllocsPerOp: 26}, // +50%
		"B-8": {NsPerOp: 100},                                // -50%
		"C-8": {NsPerOp: 10},                                 // new, no baseline
	}}
	var sb strings.Builder
	worst := Diff(&sb, base, cur)
	if math.Abs(worst-50) > 1e-9 {
		t.Fatalf("worst regression = %v, want 50", worst)
	}
	out := sb.String()
	for _, want := range []string{"A-8", "+50.0%", "-50.0%", "new", "B/op", "allocs/op", "16504", "1328", "27.0", "26.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
}
