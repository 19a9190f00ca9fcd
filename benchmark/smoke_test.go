package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json's schema: exactly these keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestRegistryMatchesBenchmarkJSON: the file the driver reads and the
// registry the program prints from name the same workloads and metrics,
// within the contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range workloads {
		unique(wl.name)
		if b.Workloads[i].Name != wl.name || b.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	strip := func(defs []metricDef) []metricDef { // the columns BENCHMARK.json has room for
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if got, want := b.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", got, want)
	}
	if got, want := b.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", got, want)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if runs := 4 + 22*len(b.Workloads); b.RunSeconds < 1 || b.RunSeconds > 60 || runs*(b.RunSeconds+13) > 3420-240 {
		t.Errorf("run_seconds %d: %d runs of it, each with set-up and warm-up, and two builds do not fit 3420 s", b.RunSeconds, runs)
	}

	var listed bytes.Buffer
	if err := realMain([]string{"-list"}, &listed); err != nil {
		t.Fatal(err)
	}
	var l struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(listed.Bytes(), &l); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if !reflect.DeepEqual(l.EndToEnd, endToEnd) || !reflect.DeepEqual(l.PerLayer, perLayer) || len(l.Workloads) != len(workloads) {
		t.Error("-list does not print the registry")
	}
}

func smokeCfg() runCfg {
	return runCfg{seed: 5, W: 2, seconds: time.Second, warm: 100 * time.Millisecond,
		slice: 300 * time.Millisecond, latEvery: smokeLatEvery, calib: newCalibrator(2)}
}

// checkResult asserts a run was correct and printed every metric of
// defs, each finite and tagged with its unit, and nothing else.
func checkResult(t *testing.T, what string, defs []metricDef, r *result) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d violations=%q", what, r.Correct, r.Attempted, r.Failed, r.violations)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", what, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", what, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s in %q, want %q", what, d.Name, m.Unit, d.Unit)
		case d.Bound > 0 && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", what, d.Name, m.Value)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("%s: result line %s must have exactly correct, attempted, failed, metrics", what, line)
	}
}

// TestSmoke runs every workload for a second untraced and, without
// -short, a second traced with a shortened layer table.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		if raceDetector && strings.HasPrefix(wl.name, "serve-") {
			continue
		}
		r, err := untraced(wl, smokeCfg())
		if err != nil {
			t.Fatalf("%s untraced: %v", wl.name, err)
		}
		checkResult(t, wl.name+" untraced", endToEnd, r)
		if testing.Short() && wl.name != "structs-raw" {
			continue
		}
		r, err = traced(wl, smokeCfg(), "")
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		checkResult(t, wl.name+" traced", perLayer, r)
	}
}

// TestServeGenerators drives each serve workload's generators (closed
// loop, sliding window, paced sender and reader) through one short traced
// window and checks the outputs; it asks for no percentile, so it also
// fits the race detector.
func TestServeGenerators(t *testing.T) {
	for _, wl := range workloads {
		if !strings.HasPrefix(wl.name, "serve-") {
			continue
		}
		inst, err := wl.setup(setupCfg{seed: 9, W: 2, latEvery: latEvery, metrics: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		w, err := run(inst, runOpts{warm: 50 * time.Millisecond, measure: 400 * time.Millisecond, traceEvery: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if w.ops == 0 || w.failed != 0 || len(w.violations) != 0 {
			t.Errorf("%s: ops=%d failed=%d violations=%q", wl.name, w.ops, w.failed, w.violations)
		}
		if st := summarise(w); st.dur[kServeReq].n == 0 || st.dur[kRound].n == 0 {
			t.Errorf("%s: traced window recorded %d request and %d round spans", wl.name, st.dur[kServeReq].n, st.dur[kRound].n)
		}
	}
}

// TestDriverInvocation runs the command line the driver uses and reads
// the last line of its output the way the driver does.
func TestDriverInvocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full epochs")
	}
	var out bytes.Buffer
	if err := realMain(strings.Fields("--workload txn-stall --seed 3 --seconds 1 --trace 0"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	checkResult(t, "driver txn-stall", endToEnd, &r)

	for _, args := range []string{"--workload nope", "--seconds 0", "--trace 2", "stray"} {
		if err := realMain(strings.Fields(args), &out); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}

// TestBrokenOutputFailsTheRun: an audit violation makes the result
// incorrect, which realMain turns into a non-zero exit.
func TestBrokenOutputFailsTheRun(t *testing.T) {
	s := samples{}
	for _, d := range endToEnd {
		s.set(d.Name, 1, 1)
	}
	r := &result{Attempted: 10, violations: auditSum("map counters", 1, 2)}
	if err := r.finish(endToEnd, s); err != nil || r.Correct {
		t.Errorf("a run with an audit violation reads correct=%v (err %v)", r.Correct, err)
	}
	r = &result{Attempted: 10, Failed: 1}
	if err := r.finish(endToEnd, s); err != nil || r.Correct {
		t.Errorf("a run with a failed op reads correct=%v (err %v)", r.Correct, err)
	}
	r = &result{Attempted: 10}
	if err := r.finish(endToEnd, s); err != nil || !r.Correct {
		t.Errorf("a clean run reads correct=%v (err %v)", r.Correct, err)
	}
	delete(s, "ops_per_s")
	if err := r.finish(endToEnd, s); err == nil {
		t.Error("a result lacking a registered metric was accepted")
	}
}
