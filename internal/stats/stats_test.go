package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-9) {
		t.Fatalf("std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P99 != 7 {
		t.Fatalf("unexpected single-element summary %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(xs, 0) != 10 || Percentile(xs, 1) != 40 {
		t.Fatal("percentile endpoints wrong")
	}
	if got := Percentile(xs, 0.5); !almostEqual(got, 25, 1e-9) {
		t.Fatalf("median = %v, want 25", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("equal allocation index = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("max-skew index = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Jain index should be 0")
	}
}

func TestJainIndexRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 && x < 1e100 {
				xs = append(xs, x)
			}
		}
		j := JainIndex(xs)
		return j >= 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndMax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if MaxUint64(nil) != 0 {
		t.Fatal("MaxUint64(nil) != 0")
	}
	if got := MaxUint64([]uint64{3, 9, 1}); got != 9 {
		t.Fatalf("MaxUint64 = %d", got)
	}
}

func TestSummarizeUint64(t *testing.T) {
	s := SummarizeUint64([]uint64{1, 2, 3})
	if s.Mean != 2 || s.N != 3 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummaryPercentilesOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardDist(t *testing.T) {
	if d := NewShardDist(nil); d.N != 0 || d.Total != 0 || d.Jain != 0 || d.MaxOverMean != 0 {
		t.Fatalf("empty dist = %+v, want zeros", d)
	}
	if d := NewShardDist([]uint64{0, 0, 0}); d.Total != 0 || d.MaxOverMean != 0 {
		t.Fatalf("all-zero dist = %+v", d)
	}
	// Perfect balance.
	d := NewShardDist([]uint64{10, 10, 10, 10})
	if d.N != 4 || d.Total != 40 {
		t.Fatalf("dist = %+v", d)
	}
	if math.Abs(d.Jain-1) > 1e-12 || math.Abs(d.MaxOverMean-1) > 1e-12 {
		t.Fatalf("balanced dist: Jain=%v MaxOverMean=%v, want 1, 1", d.Jain, d.MaxOverMean)
	}
	// Maximal skew: Jain -> 1/N, MaxOverMean -> N.
	d = NewShardDist([]uint64{40, 0, 0, 0})
	if math.Abs(d.Jain-0.25) > 1e-12 || math.Abs(d.MaxOverMean-4) > 1e-12 {
		t.Fatalf("skewed dist: Jain=%v MaxOverMean=%v, want 0.25, 4", d.Jain, d.MaxOverMean)
	}
}
