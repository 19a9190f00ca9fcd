package main

import (
	"fmt"
	"math/bits"
)

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds here): values below histSub are counted exactly, larger
// ones in histSub sub-buckets per power of two, so a bucket is never
// wider than 1/histSub of its lower bound (1.6 %). Quantiles are
// interpolated by rank inside the bucket, which keeps the error well
// under the 3 % the benchmark promises and makes the reported value a
// continuous function of the samples rather than one of a few thousand
// bucket labels.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histSub     = 64
	histSubBits = 6
	histBuckets = (64 - histSubBits + 1) * histSub
	// minBeyond is the number of samples that must lie beyond a reported
	// percentile; a percentile with fewer is capped to the highest one
	// that has them, and a histogram too small to give a median refuses.
	minBeyond = 10
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>e) - histSub
}

// histBucket returns the lower bound and width of bucket i.
func histBucket(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << e), float64(uint64(1) << e)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reports the q-quantile and the quantile actually used: q
// itself when at least minBeyond samples lie beyond it, else the highest
// quantile that has them. It refuses a histogram that cannot give even a
// median under that rule.
func (h *hist) quantile(q float64) (value, used float64, err error) {
	if h.n < 2*minBeyond {
		return 0, 0, fmt.Errorf("quantile %.3f refused: %d samples, need %d", q, h.n, 2*minBeyond)
	}
	if most := 1 - minBeyond/float64(h.n); q > most {
		q = most
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBucket(i)
			return lo + width*(target-cum)/float64(c), q, nil
		}
		cum += float64(c)
	}
	panic("hist: counts do not add up to n")
}

// shareBelow is the share of samples in buckets that end at or below v.
func (h *hist) shareBelow(v int64) float64 {
	if h.n == 0 {
		return 0
	}
	var below uint64
	for _, c := range h.counts[:histIndex(uint64(v))] {
		below += c
	}
	return float64(below) / float64(h.n)
}
