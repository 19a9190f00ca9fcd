package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the simulated-experiment golden file")

// simulatedExperiments are the experiments that run on sched.Sim, whose
// tables depend only on schedules and seeds; E8 and E10 run natively
// and time real threads, so they are left out.
var simulatedExperiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E11"}

// TestSimulatedTablesGolden pins the Quick tables of every simulated
// experiment byte for byte (regenerate with go test -run
// TestSimulatedTablesGolden -update). A change to the simulator, the
// lock or its delays that moves a single step shows up here as a diff.
func TestSimulatedTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine experiments; skip in -short")
	}
	var got strings.Builder
	for _, id := range simulatedExperiments {
		e := Lookup(id)
		if e == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		tab, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.WriteString(tab.String())
		got.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "experiments.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("simulated experiment tables diverged from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
