// Package series provides the time-series plumbing for the self-similarity
// study: block aggregation X^(m) (equation 8 of the paper), sample
// autocorrelation, and the geometric block sizes the aggregation-based
// Hurst estimators sweep.
package series

import "coplot/internal/stats"

// Aggregate returns the aggregated series X^(m): the means of consecutive
// non-overlapping blocks of size m. Trailing elements that do not fill a
// complete block are discarded. m must be positive.
func Aggregate(x []float64, m int) []float64 {
	if m <= 0 {
		panic("series: non-positive block size")
	}
	n := len(x) / m
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += x[i*m+j]
		}
		out[i] = s / float64(m)
	}
	return out
}

// ACF returns the sample autocorrelation function r(k) for k = 0..maxLag
// (equation 5 of the paper).
func ACF(x []float64, maxLag int) []float64 {
	n := len(x)
	if maxLag >= n {
		maxLag = n - 1
	}
	m := stats.Mean(x)
	den := 0.0
	for _, v := range x {
		den += (v - m) * (v - m)
	}
	out := make([]float64, maxLag+1)
	if den == 0 {
		return out
	}
	for k := 0; k <= maxLag; k++ {
		num := 0.0
		for i := 0; i < n-k; i++ {
			num += (x[i] - m) * (x[i+k] - m)
		}
		out[k] = num / den
	}
	return out
}

// BlockSizes returns a geometric ladder of block sizes from lo to hi with
// the given multiplicative step (e.g. lo=4, hi=n/8, step≈1.6), used by the
// R/S and variance-time estimators to spread points evenly in log scale.
func BlockSizes(lo, hi int, step float64) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	last := 0
	for f := float64(lo); int(f) <= hi; f *= step {
		m := int(f)
		if m != last {
			out = append(out, m)
			last = m
		}
	}
	return out
}
