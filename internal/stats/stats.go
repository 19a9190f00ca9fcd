// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries, percentiles, Jain's fairness index,
// and (loghist.go) the log-bucketed latency histogram.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var sum, sq float64
	for _, x := range sorted {
		sum += x
		sq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 0.5),
		P90:    Percentile(sorted, 0.9),
		P99:    Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending
// sorted sample using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SummarizeUint64 converts and summarizes an integer sample.
func SummarizeUint64(xs []uint64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// JainIndex computes Jain's fairness index of a non-negative allocation
// vector: (Σx)² / (n·Σx²). It is 1 for perfectly equal allocations and
// approaches 1/n under maximal skew.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Mean of a float64 slice; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ShardDist summarizes how a counter (attempts, ops, occupancy)
// distributes across the shards of a partitioned structure. Sharded
// subsystems report it so dashboards can tell "the keyspace is skewed"
// from "the map is overloaded" at a glance.
type ShardDist struct {
	// N is the shard count.
	N int
	// Total is the summed counter.
	Total uint64
	// Jain is Jain's fairness index of the distribution: 1 when every
	// shard carries the same load, approaching 1/N under maximal skew.
	Jain float64
	// MaxOverMean is the hottest shard's counter over the mean (1 when
	// perfectly balanced, N when one shard carries everything). Zero
	// total yields 0.
	MaxOverMean float64
}

// NewShardDist computes the distribution summary of per-shard counts.
func NewShardDist(counts []uint64) ShardDist {
	d := ShardDist{N: len(counts)}
	if len(counts) == 0 {
		return d
	}
	fs := make([]float64, len(counts))
	var max uint64
	for i, c := range counts {
		d.Total += c
		fs[i] = float64(c)
		if c > max {
			max = c
		}
	}
	d.Jain = JainIndex(fs)
	if d.Total > 0 {
		mean := float64(d.Total) / float64(len(counts))
		d.MaxOverMean = float64(max) / mean
	}
	return d
}

// MaxUint64 returns the maximum of xs, or 0 for an empty slice.
func MaxUint64(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
