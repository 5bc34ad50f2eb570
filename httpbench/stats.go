package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so a p99
// needs 1,000 samples and a smaller sample reports a lower percentile.
const minBeyond = 10

// tailIndex returns the index into n ascending samples of the
// want-quantile (nearest rank), lowered to the highest rank that still
// leaves minBeyond samples above it.
func tailIndex(n int, want float64) int {
	idx := int(math.Ceil(want*float64(n))) - 1
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

const (
	// sliceMin is the smallest slice slicedPct cuts: enough requests for a
	// p99 under the reporting rule.
	sliceMin = 1000
	// maxSlices bounds the number of slices.
	maxSlices = 5
)

// slices is how many consecutive slices slicedPct cuts n samples into.
func slices(n int) int { return min(maxSlices, max(1, n/sliceMin)) }

// slicedPct cuts xs, in schedule order, into slices(len(xs)) consecutive
// slices, takes the want-quantile of each under the reporting rule, and
// returns the median of those: a burst of interference from outside the
// process then moves one slice's figure rather than the result.
func slicedPct(xs []float64, want float64) float64 {
	k := slices(len(xs))
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		part := append(dist(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...).sorted()
		v, _ := part.pct(want)
		per = append(per, v)
	}
	return median(per)
}

// dist is a sample of one timing, kept for percentile queries.
type dist []float64

// sorted sorts the sample in place and returns it.
func (d dist) sorted() dist {
	sort.Float64s(d)
	return d
}

// pct returns the want-quantile under the reporting rule, and the quantile
// actually reported. The receiver must be sorted; an empty sample yields 0.
func (d dist) pct(want float64) (value, reported float64) {
	if len(d) == 0 {
		return 0, 0
	}
	idx := tailIndex(len(d), want)
	return d[idx], float64(idx+1) / float64(len(d))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, returning 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
