package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestHistQuantileOracle compares the histogram's quantiles with the
// order statistics of the sorted samples, on distributions that span
// the bucket scheme: exact small values, a narrow peak, a heavy tail.
func TestHistQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	dists := map[string]func() int64{
		"small":     func() int64 { return rng.Int64N(50) },
		"uniform":   func() int64 { return 1000 + rng.Int64N(1_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(8 + 2*rng.NormFloat64())) },
		"bimodal": func() int64 {
			if rng.IntN(16) == 0 {
				return 4_000_000 + rng.Int64N(100_000)
			}
			return 80_000 + rng.Int64N(20_000)
		},
	}
	for name, draw := range dists {
		h := newHist()
		var all []int64
		for i := 0; i < 50_000; i++ {
			v := draw()
			h.record(v)
			all = append(all, v)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			got, used, err := h.quantile(q)
			if err != nil || used != q {
				t.Fatalf("%s q=%v: used %v, err %v", name, q, used, err)
			}
			want := float64(all[int(math.Ceil(q*float64(len(all))))-1])
			if diff := math.Abs(got - want); diff > 0.03*want && diff > 1 {
				t.Errorf("%s q=%v: histogram %v, sorted samples %v (%.2f%% off)", name, q, got, want, 100*diff/want)
			}
		}
	}
}

// TestHistRefusesThinTails: a percentile needs ten samples beyond it.
func TestHistRefusesThinTails(t *testing.T) {
	h := newHist()
	for i := 0; i < 19; i++ {
		h.record(int64(i))
	}
	if _, _, err := h.quantile(0.5); err == nil {
		t.Error("19 samples gave a median; want a refusal")
	}
	for i := 19; i < 500; i++ {
		h.record(int64(i))
	}
	v, used, err := h.quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - 10.0/500; used != want {
		t.Errorf("p99 of 500 samples reported at q=%v, want the cap %v", used, want)
	}
	if v < 480 || v > 495 {
		t.Errorf("capped p99 of 0..499 = %v, want about 490", v)
	}
	if _, used, _ := h.quantile(0.5); used != 0.5 {
		t.Errorf("median of 500 samples reported at q=%v", used)
	}
}

func TestHistShareBelow(t *testing.T) {
	h := newHist()
	for i := int64(1); i <= 1000; i++ {
		h.record(i * 10_000) // 10 µs .. 10 ms
	}
	if got := h.shareBelow(1_000_000); math.Abs(got-0.1) > 0.005 {
		t.Errorf("share below 1 ms = %v, want 0.1", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}
