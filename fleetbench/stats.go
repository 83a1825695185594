package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 over 200 samples rests on two values.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, sorting them in place. It returns NaN for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// supported reports whether n samples leave at least minTail samples beyond
// the p-th percentile.
func supported(n int, p float64) bool {
	return float64(n)*(100-p) >= minTail*100-1e-6 // 100-99.9 is not exact
}

// highestSupported returns the highest of p50, p90, p99 and p99.9 that n
// samples support, or 0 when not even the median is.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// median returns the median of xs (mean of the middle pair for even
// lengths), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
