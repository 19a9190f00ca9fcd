// Command wfbench runs the experiments that reproduce the paper's
// quantitative claims and prints their tables.
//
// Usage:
//
//	wfbench -list
//	wfbench -exp E3                # one experiment, quick scale
//	wfbench -scale full            # everything, full scale (slow)
//	wfbench -exp E1 -scale full
//	wfbench -workload map:read     # wfmap vs mutex-sharded baseline
//	wfbench -workload map:zipf -scale full
//	wfbench -workload cache:zipf   # wfcache vs mutex-LRU, raw + holder-stall regimes
//	wfbench -workload txn:transfer # wfmap Atomic vs sorted-multi-mutex, L = 1..8
//	wfbench -workload queue:mpmc   # wfqueue/WorkPool vs channel + mutex-ring
//	wfbench -workload log:lagging  # wflog vs mutex+slice + channel fan-out broadcast
//	wfbench -workload service:read # wfserve vs mutex baseline, open-loop tail latency
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"wflocks/internal/bench"
	"wflocks/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment id (E1..E10); empty = all")
		scale    = fs.String("scale", "quick", "quick or full")
		list     = fs.Bool("list", false, "list experiments and workload scenarios, then exit")
		workName = fs.String("workload", "",
			"data-structure workload instead of an experiment (see -list for the registry)")
		variant = fs.String("variant", "both",
			"delay variant for map/cache/txn workloads: known, adaptive, or both "+
				"(queue, log and service workloads always run adaptive)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.ID, e.Claim)
		}
		printScenarios(stdout)
		return 0
	}

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.Quick
	case "full":
		s = bench.Full
	default:
		fmt.Fprintf(stderr, "wfbench: unknown scale %q (want quick or full)\n", *scale)
		return 2
	}

	variants, err := bench.ParseVariants(*variant)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %v\n", err)
		return 2
	}

	if *workName != "" {
		return runWorkload(*workName, s, variants, stdout, stderr)
	}

	exps := bench.Experiments()
	if *expID != "" {
		e := bench.Lookup(*expID)
		if e == nil {
			fmt.Fprintf(stderr, "wfbench: unknown experiment %q (try -list)\n", *expID)
			return 2
		}
		exps = []bench.Experiment{*e}
	}

	for _, e := range exps {
		start := time.Now()
		table, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(stderr, "wfbench: %s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, table)
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// printScenarios renders the central workload registry, one line per
// scenario.
func printScenarios(w io.Writer) {
	for _, in := range workload.Scenarios() {
		fmt.Fprintf(w, "%-14s %s\n", in.Name, in.Summary)
	}
}

// runWorkload runs a registry scenario by name; every scenario family
// shares the flag and the central registry describes the options. vs
// restricts the map/cache/txn delay-variant sweep; the queue, log and
// service tiers are adaptive-only by construction.
func runWorkload(name string, s bench.Scale, vs []bench.Variant, stdout, stderr io.Writer) int {
	if workload.Lookup(name) == nil {
		// Name the failure precisely: a family nobody registered is a
		// different mistake from a typo inside a known family.
		fam, _, _ := strings.Cut(name, ":")
		if fams := workload.Families(); !slices.Contains(fams, fam) {
			fmt.Fprintf(stderr, "wfbench: unknown workload family %q (families: %s); the registry:\n",
				fam, strings.Join(fams, ", "))
		} else {
			fmt.Fprintf(stderr, "wfbench: unknown %s workload %q; the registry:\n", fam, name)
		}
		printScenarios(stderr)
		return 2
	}
	start := time.Now()
	table, err := bench.RunScenario(name, s, vs)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %s failed: %v\n", name, err)
		return 1
	}
	fmt.Fprintln(stdout, table)
	fmt.Fprintf(stdout, "(%s completed in %v)\n", name, time.Since(start).Round(time.Millisecond))
	return 0
}
