package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"wflocks/internal/workload"
)

// rows expands one implementation name over its swept parameter cells.
func rows(name string, params ...string) [][]string {
	out := make([][]string, len(params))
	for i, p := range params {
		out[i] = []string{name, p}
	}
	return out
}

func cat(groups ...[][]string) [][]string {
	var out [][]string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// TestRunScenario runs one or two scenarios of every family at quick
// scale through the one driver and checks each table's shape: the
// implementations in order within each regime, a positive throughput
// cell, a success rate in (0, 1] and numeric obs cells on wait-free
// rows, placeholders on baseline rows. The stall regime sleeps for
// real, so families that have one are skipped in -short.
func TestRunScenario(t *testing.T) {
	sweep := []string{"1", "2", "4", "8"}
	mapImpls := cat(rows("wfmap/adaptive", sweep...), rows("wfmap/known", sweep...), rows("mutex", sweep...))
	queueImpls := cat(rows("wfqueue", "1"), rows("workpool", sweep...), rows("channel", "-"), rows("mutexring", "1"))
	logImpls := cat(rows("wflog", sweep...), rows("mutexslice", "1"), rows("chanfan", "-"))
	cases := []struct {
		name  string
		impls [][]string // label cells, in order, of one regime
		stall bool
		// rate and success are column indexes; success < 0 = none, and
		// the table then has no obs columns either.
		rate, success int
		check         func(t *testing.T, row []string)
	}{
		{name: "map:read", impls: mapImpls, rate: 2, success: 3},
		{name: "cache:zipf", stall: true, rate: 3, success: 6,
			impls: cat(rows("wfcache/adaptive", sweep...), rows("wfcache/known", sweep...), rows("mutexlru", "1")),
			check: func(t *testing.T, row []string) {
				// The cache holds a quarter of the keyspace under zipf
				// 1.2: hit rates must sit well above the uniform floor
				// for every impl.
				if hit, err := strconv.ParseFloat(row[4], 64); err != nil || hit < 40 || hit > 100 {
					t.Errorf("row %v: bad hit%% %q", row, row[4])
				}
			}},
		{name: "txn:transfer", stall: true, rate: 3, success: 4,
			impls: cat(rows("wfmap/adaptive", sweep...), rows("wfmap/known", sweep...), rows("multimutex", sweep...)),
			check: func(t *testing.T, row []string) {
				if row[6] != "yes" {
					t.Errorf("row %v: conserved = %q", row, row[6])
				}
			}},
		{name: "queue:spsc", impls: queueImpls, stall: true, rate: 3, success: 5},
		{name: "queue:pipeline", impls: queueImpls, stall: true, rate: 3, success: 5},
		{name: "log:fanout", impls: logImpls, stall: true, rate: 3, success: 6},
		{name: "log:replay", impls: logImpls, stall: true, rate: 3, success: 6,
			check: func(t *testing.T, row []string) {
				if row[0] != "wflog" {
					return
				}
				if _, err := strconv.ParseUint(row[4], 10, 64); err != nil {
					t.Errorf("row %v: bad trimmed %q", row, row[4])
				}
			}},
		{name: "service:read", stall: true, rate: 9, success: -1,
			impls: [][]string{{"wf-cache"}, {"mutex-shard"}},
			check: func(t *testing.T, row []string) {
				sent, err1 := strconv.ParseUint(row[2], 10, 64)
				done, err2 := strconv.ParseUint(row[3], 10, 64)
				if err1 != nil || err2 != nil || sent == 0 || done != sent {
					t.Errorf("row %v: sent %q, done %q; want every sent op answered", row, row[2], row[3])
				}
				if row[4] != "0" {
					t.Errorf("row %v: %s protocol errors", row, row[4])
				}
				p50, err := time.ParseDuration(row[5])
				if err != nil || p50 <= 0 {
					t.Errorf("row %v: bad p50 %q", row, row[5])
				}
				if p999, err := time.ParseDuration(row[7]); err != nil || p999 < p50 {
					t.Errorf("row %v: p99.9 %q below p50 %q", row, row[7], row[5])
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.stall && testing.Short() {
				t.Skip("stall-regime rows sleep for real; skip in -short")
			}
			tab, err := RunScenario(tc.name, Quick, AllVariants)
			if err != nil {
				t.Fatal(err)
			}
			stallLabels := []string{"none"}
			if tc.stall {
				stallLabels = append(stallLabels, "4ms/16")
			}
			if want := len(stallLabels) * len(tc.impls); len(tab.Rows) != want {
				t.Fatalf("table has %d rows, want %d", len(tab.Rows), want)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row %v has %d cells under a %d-column header", row, len(row), len(tab.Header))
				}
				want := tc.impls[i%len(tc.impls)]
				if tc.stall {
					want = append(append([]string(nil), want...), stallLabels[i/len(tc.impls)])
				}
				if got := row[:len(want)]; strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("row %d is labelled %v, want %v", i, got, want)
				}
				if rate, err := strconv.ParseFloat(row[tc.rate], 64); err != nil || rate <= 0 {
					t.Errorf("row %v: bad throughput %q", row, row[tc.rate])
				}
				if tc.check != nil {
					tc.check(t, row)
				}
				if tc.success < 0 {
					continue
				}
				wf := strings.HasPrefix(row[0], "wf") || row[0] == "workpool"
				if succ, err := strconv.ParseFloat(row[tc.success], 64); wf && (err != nil || succ <= 0 || succ > 1) {
					t.Errorf("row %v: bad success %q", row, row[tc.success])
				} else if !wf && row[tc.success] != "-" {
					t.Errorf("baseline row %v reports success %q", row, row[tc.success])
				}
				for _, c := range row[len(row)-len(obsHeader):] {
					if _, err := strconv.ParseFloat(c, 64); wf == (err != nil) {
						t.Errorf("row %v: obs cell %q on a row with wf=%v", row, c, wf)
					}
				}
			}
		})
	}
}

// TestRunScenarioRejectsInvalid covers the name lookup and every
// family's validation path.
func TestRunScenarioRejectsInvalid(t *testing.T) {
	if _, err := RunScenario("bogus:x", Quick, AllVariants); err == nil {
		t.Error("unregistered scenario accepted")
	}
	families := map[string]func() (*family, error){
		"map": func() (*family, error) {
			return mapFamily(&workload.MapScenario{Name: "bad", Keys: 0, GetPct: 100}, Quick, AllVariants)
		},
		"cache": func() (*family, error) {
			return cacheFamily(&workload.CacheScenario{Name: "bad", Keys: 0, Capacity: 1, GetPct: 100}, Quick, AllVariants)
		},
		"txn": func() (*family, error) {
			return txnFamily(&workload.TxnScenario{Name: "bad", Keys: 0}, Quick, AllVariants)
		},
		"queue": func() (*family, error) {
			return queueFamily(&workload.QueueScenario{Name: "bad", Capacity: 0, Stages: 1}, Quick)
		},
		"log": func() (*family, error) {
			return logFamily(&workload.LogScenario{Name: "bad", Producers: 1, Consumers: 1, Capacity: 0, Segment: 1}, Quick)
		},
		"service": func() (*family, error) {
			return serviceFamily(&workload.ServiceScenario{Name: "service:x", Backend: "nope", Rate: 1,
				Duration: time.Second, Conns: 1, Keys: 1, GetPct: 100}, Quick)
		},
	}
	for name, build := range families {
		if _, err := build(); err == nil {
			t.Errorf("%s: invalid scenario accepted", name)
		}
	}
}

// leakyTxnMap breaks conservation: every value write stores one more
// than the body asked for.
type leakyTxnMap struct{ TxnMap }

func (m leakyTxnMap) Atomic(keys []uint64, body TxnBody) error {
	return m.TxnMap.Atomic(keys, func(keys []uint64, get func(uint64) (uint64, bool), put func(k, v uint64)) {
		body(keys, get, func(k, v uint64) { put(k, v+1) })
	})
}

// TestSweepFailsOnBrokenConservation pins that the audit is the
// driver's: a blocking baseline that loses the transfer invariant
// fails the run exactly as a wait-free implementation would.
func TestSweepFailsOnBrokenConservation(t *testing.T) {
	sc := workload.LookupTxnScenario("txn:transfer")
	f, err := txnFamily(sc, Quick, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.stall = false
	f.impls = []impl{{
		cells: []string{"leaky", "2"},
		build: func(sp *StallPoint) (*instance, error) {
			return txnInstance(sc, leakyTxnMap{MutexTxnMap{NewMultiMutexMap(TxnShards, sp)}}, 2, 10), nil
		},
	}}
	if _, err := f.sweep(); err == nil || !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("sweep over a leaky baseline returned %v, want a conservation violation", err)
	}
}
