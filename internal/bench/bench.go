// Package bench is the experiment harness. It reproduces every
// quantitative claim of the paper as an experiment E1–E11 (the paper
// has no empirical tables or figures, so each experiment regenerates a
// theorem's bound or an in-text claim; `wfbench -list` prints the
// index, each id with the claim it reproduces), and it runs the
// structure scenarios of internal/workload's registry through one
// driver (scenario.go): RunScenario sweeps a family's implementations
// — the wait-free structure and its blocking baselines — over the raw
// and holder-stall regimes and tabulates one row each.
//
// Experiments and scenarios both return a Table that renders as an
// aligned text table — the "rows the paper reports" equivalent. The
// cmd/wfbench binary drives these functions; the top-level benchmarks
// run the experiments, and drive the same structure constructors and
// operation mixes as the scenarios from b.RunParallel.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects experiment sizes: Quick for tests and smoke runs, Full
// for the numbers worth quoting.
type Scale int

// Scales, smallest first.
const (
	Quick Scale = iota + 1
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}
