package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (the mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported percentile.
const tailBeyond = 10

// tail reports the q-quantile of xs (nearest rank) under the rule that
// a percentile is only reported when at least tailBeyond samples lie
// beyond it. When the named quantile is not supported, the highest
// supported one is reported instead; when no percentile above the
// median is supported (fewer than 2·tailBeyond+1 samples), the median
// is. eff is the quantile actually reported, for the run record.
func tail(xs []float64, q float64) (v, eff float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1 // nearest rank
	if maxIdx := n - 1 - tailBeyond; idx > maxIdx {
		idx = maxIdx
	}
	if idx < n/2 {
		return median(xs), 0.5
	}
	return s[idx], float64(idx+1) / float64(n)
}
