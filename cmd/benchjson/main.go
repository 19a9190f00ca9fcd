// Command benchjson converts `go test -bench` output into the JSON
// benchmark snapshots the CI pipeline stores and diffs: BENCH_PR.json
// on pull requests (uploaded as an artifact) and BENCH_main.json (the
// committed baseline, refreshed on pushes to main).
//
// Usage:
//
//	go test -bench 'Do|Map' -benchmem -benchtime=500x -count=5 . | benchjson -out BENCH_PR.json
//	benchjson -in bench.out -baseline BENCH_main.json      # print a diff table
//	benchjson -in bench.out -baseline BENCH_main.json -max-regress 50
//
// With -count > 1 each benchmark appears several times; benchjson
// aggregates every column to the mean and records the sample count.
// Columns a benchmark reports itself (b.ReportMetric: hitrate,
// attempts/req, steals) are kept under "metrics". With -baseline
// it prints a per-benchmark table instead of JSON — ns/op with its
// delta, B/op and allocs/op, each beside the baseline's — and, when
// -max-regress is positive, exits 1 if any ns/op regression exceeds
// that percentage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated numbers. The memory columns are
// always written: the bench job runs with -benchmem, so a zero is a
// measured zero. Metrics holds the columns a benchmark reports itself
// through b.ReportMetric (hitrate, attempts/req, steals), by unit.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples"`
}

// Snapshot is the file format: environment header plus name → result.
type Snapshot struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	Pkg        string            `json:"pkg,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches the head of one result line of `go test -bench`
// output, name and iteration count; what follows is value/unit pairs —
// ns/op, a benchmark's own metrics, then the -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// procSuffix is the `-N` GOMAXPROCS suffix Go appends to benchmark
// names. It is stripped so snapshots from machines with different core
// counts still diff name-for-name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// accum sums the samples of one benchmark, column by unit, before
// averaging.
type accum struct {
	sum map[string]float64
	n   int
}

// Parse reads `go test -bench` output into a Snapshot, averaging
// repeated samples of the same benchmark.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: map[string]Result{}}
	accums := map[string]*accum{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			snap.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			mm := benchLine.FindStringSubmatch(line)
			if mm == nil {
				continue
			}
			cols := strings.Fields(mm[2])
			if len(cols) < 2 || cols[1] != "ns/op" {
				continue
			}
			name := procSuffix.ReplaceAllString(strings.TrimPrefix(mm[1], "Benchmark"), "")
			a := accums[name]
			if a == nil {
				a = &accum{sum: map[string]float64{}}
				accums[name] = a
			}
			for i := 0; i+1 < len(cols); i += 2 {
				v, err := strconv.ParseFloat(cols[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchjson: bad %s in %q: %w", cols[i+1], line, err)
				}
				a.sum[cols[i+1]] += v
			}
			a.n++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(accums) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	for name, a := range accums {
		res := Result{Samples: a.n}
		for unit, sum := range a.sum {
			mean := sum / float64(a.n)
			switch unit {
			case "ns/op":
				res.NsPerOp = mean
			case "B/op":
				res.BPerOp = mean
			case "allocs/op":
				res.AllocsPerOp = mean
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = mean
			}
		}
		snap.Benchmarks[name] = res
	}
	return snap, nil
}

// Diff renders a baseline-vs-current table (time, bytes and allocations
// per op) and returns the worst ns/op regression in percent (negative
// means everything got faster).
func Diff(w io.Writer, baseline, current *Snapshot) float64 {
	names := make([]string, 0, len(current.Benchmarks))
	for name := range current.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	worst := 0.0
	first := true
	fmt.Fprintf(w, "%-40s %14s %14s %9s %12s %12s %11s %11s\n", "benchmark",
		"base ns/op", "ns/op", "delta", "base B/op", "B/op", "base allocs", "allocs/op")
	for _, name := range names {
		cur := current.Benchmarks[name]
		base, ok := baseline.Benchmarks[name]
		if !ok || base.NsPerOp == 0 {
			fmt.Fprintf(w, "%-40s %14s %14.1f %9s %12s %12.0f %11s %11.1f\n",
				name, "-", cur.NsPerOp, "new", "-", cur.BPerOp, "-", cur.AllocsPerOp)
			continue
		}
		delta := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		if first || delta > worst {
			worst = delta
			first = false
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %+8.1f%% %12.0f %12.0f %11.1f %11.1f\n",
			name, base.NsPerOp, cur.NsPerOp, delta, base.BPerOp, cur.BPerOp, base.AllocsPerOp, cur.AllocsPerOp)
	}
	return worst
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in         = flag.String("in", "", "bench output file (default stdin)")
		out        = flag.String("out", "", "JSON destination (default stdout)")
		baseline   = flag.String("baseline", "", "baseline JSON to diff against (prints a table instead of JSON)")
		maxRegress = flag.Float64("max-regress", 0,
			"with -baseline: fail if any ns/op regression exceeds this percent (0 = report only)")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	snap, err := Parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
		var base Snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad baseline %s: %v\n", *baseline, err)
			return 1
		}
		worst := Diff(os.Stdout, &base, snap)
		if *maxRegress > 0 && worst > *maxRegress {
			fmt.Fprintf(os.Stderr, "benchjson: worst regression %.1f%% exceeds limit %.1f%%\n",
				worst, *maxRegress)
			return 1
		}
		return 0
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	return 0
}
