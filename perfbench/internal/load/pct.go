package load

import (
	"math"
	"slices"
)

// Percentile returns the nearest-rank p-th percentile of samples, for
// 0 < p <= 100: the smallest sample with at least p% of all samples at
// or below it. It is exact — every sample is kept, no buckets — and
// returns 0 for no samples. samples is left as it was.
func Percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	samples = slices.Sorted(slices.Values(samples))
	// The epsilon absorbs float error in p*n/100 (99*100/100 must be
	// rank 99, not 100).
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	rank = max(1, min(rank, n))
	return samples[rank-1]
}

// Median is Percentile(samples, 50).
func Median(samples []float64) float64 { return Percentile(samples, 50) }
