// Package stats provides the descriptive statistics, correlation measures,
// regression fits, and isotonic regression used throughout the Co-plot
// reproduction.
//
// Following section 3 of the paper, the workload variables are summarized
// with order statistics — the median and the 90% interval (the difference
// between the 95th and 5th percentiles) — because means and coefficients of
// variation are unstable under the long-tailed distributions of parallel
// workloads.
package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (divide by n) of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the p-quantile (0 <= p <= 1) of xs using the same
// linear-interpolation rule as R's default type-7 estimator. The input
// need not be sorted and is left unchanged. It returns NaN for empty
// input or p outside [0,1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	selectQuantiles(a, p)
	return quantileSorted(a, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Interval90 returns the paper's "90% interval": the difference between
// the 95th and 5th percentiles of xs.
func Interval90(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	selectQuantiles(a, 0.05, 0.95)
	return quantileSorted(a, 0.95) - quantileSorted(a, 0.05)
}

// MedianAndInterval returns the median together with the q-interval
// (difference between the (0.5+q/2) and (0.5-q/2) quantiles) of xs,
// which it leaves unchanged.
func MedianAndInterval(xs []float64, q float64) (median, interval float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	a := append([]float64(nil), xs...)
	lo, hi := 0.5-q/2, 0.5+q/2
	selectQuantiles(a, lo, 0.5, hi)
	median = quantileSorted(a, 0.5)
	interval = quantileSorted(a, hi) - quantileSorted(a, lo)
	return median, interval
}

// selectQuantiles reorders a so that every position quantileSorted reads
// for the given p holds the value it would hold were a sorted by
// sort.Float64s, which puts NaNs first. Only those few order statistics
// are placed, by selection, which costs O(n) per position where a sort
// costs O(n log n). Values equal in that order, such as -0 and +0 or two
// NaNs, may trade places, as they may under the sort.
func selectQuantiles(a []float64, ps ...float64) {
	n := len(a)
	if n < 2 {
		return
	}
	var ranks [6]int // ps holds at most three quantiles
	k := 0
	for _, p := range ps {
		h := p * float64(n-1)
		lo := int(math.Floor(h))
		if lo+1 >= n {
			ranks[k] = n - 1
			k++
			continue
		}
		ranks[k], ranks[k+1] = lo, lo+1
		k += 2
	}
	// NaNs go to the front, as the sort puts them; the rest is selected
	// with plain comparisons.
	nan := 0
	for i, x := range a {
		if math.IsNaN(x) {
			a[nan], a[i] = x, a[nan]
			nan++
		}
	}
	slices.Sort(ranks[:k])
	from := nan
	for _, r := range ranks[:k] {
		if r < from || r >= n {
			continue // placed already, or out of range for quantileSorted to report
		}
		selectNth(a[from:], r-from, 2*bits.Len(uint(n-from)))
		from = r + 1
	}
}

// selectNth reorders a, which holds no NaN, so that a[k] is the value
// sort.Float64s would put there, with nothing after it less and nothing
// before it greater. It partitions around a median of three, as
// Numerical Recipes' select does. After budget partitions the range left
// is sorted outright, so a budget of O(log n) bounds the worst case at
// O(n log n).
func selectNth(a []float64, k, budget int) {
	l, r := 0, len(a)-1
	if k == 0 { // the minimum, as for the rank after one just placed
		m := 0
		for i := 1; i <= r; i++ {
			if a[i] < a[m] {
				m = i
			}
		}
		a[0], a[m] = a[m], a[0]
		return
	}
	for r-l > 1 {
		if budget == 0 {
			sort.Float64s(a[l : r+1])
			return
		}
		budget--
		mid := int(uint(l+r) >> 1)
		a[mid], a[l+1] = a[l+1], a[mid]
		if a[r] < a[l] {
			a[l], a[r] = a[r], a[l]
		}
		if a[r] < a[l+1] {
			a[l+1], a[r] = a[r], a[l+1]
		}
		if a[l+1] < a[l] {
			a[l], a[l+1] = a[l+1], a[l]
		}
		// a[l] <= pivot <= a[r] bound both scans.
		i, j, pivot := l+1, r, a[l+1]
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; pivot < a[j]; j-- {
			}
			if j < i {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[l+1], a[j] = a[j], pivot
		if j >= k {
			r = j - 1
		}
		if j <= k {
			l = i
		}
	}
	if r == l+1 && a[r] < a[l] {
		a[l], a[r] = a[r], a[l]
	}
}

// Normalize returns (xs - mean)/stddev, the z-scores of equation (1) in
// the paper. A constant input yields all-zero scores rather than NaN,
// matching the behaviour needed when a constant variable sneaks into an
// analysis. Constancy is tested on the values themselves: the mean of
// equal values can round away from them (three 0.1s average to
// 0.10000000000000002), and the resulting ~1e-17 standard deviation
// would blow the rounding error up into scores of ±1.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if !slices.ContainsFunc(xs, func(x float64) bool { return x != xs[0] }) {
		return out
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 || math.IsNaN(sd) {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Pearson returns the Pearson product-moment correlation of xs and ys.
// It returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks returns the fractional ranks of xs (average rank for ties),
// with ranks starting at 1.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation of xs and ys.
func Spearman(xs, ys []float64) float64 {
	return Pearson(Ranks(xs), Ranks(ys))
}

// OLS fits y = intercept + slope*x by ordinary least squares and returns
// the coefficients together with the correlation coefficient r.
func OLS(xs, ys []float64) (slope, intercept, r float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	r = Pearson(xs, ys)
	return
}

// PAVA performs isotonic regression by the pool-adjacent-violators
// algorithm: it returns the non-decreasing sequence closest to ys in the
// weighted least-squares sense. weights may be nil for unit weights. PAVA
// is the monotone-regression step of non-metric MDS.
func PAVA(ys, weights []float64) []float64 {
	n := len(ys)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	var s PAVAScratch
	s.Fit(out, ys, weights)
	return out
}

// PAVAScratch holds the block buffers of the pool-adjacent-violators
// algorithm so repeated fits reuse them: after the first Fit of a given
// length, further fits allocate nothing. The SMACOF monotone loop runs
// one fit per iteration, so the zero-allocation steady state matters
// there; the zero value is ready to use.
type PAVAScratch struct {
	vals   []float64
	wts    []float64
	counts []int
}

// Fit writes the isotonic regression of ys into dst (the same length);
// dst may alias ys. weights may be nil for unit weights, which are
// applied implicitly — no weight slice is materialized. The arithmetic
// is identical to PAVA's, merge for merge.
func (s *PAVAScratch) Fit(dst, ys, weights []float64) {
	n := len(ys)
	if n == 0 {
		return
	}
	if cap(s.vals) < n {
		s.vals = make([]float64, 0, n)
		s.wts = make([]float64, 0, n)
		s.counts = make([]int, 0, n)
	}
	// Blocks are maintained as (value, weight, count) triples.
	vals, wts, counts := s.vals[:0], s.wts[:0], s.counts[:0]
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		vals = append(vals, ys[i])
		wts = append(wts, w)
		counts = append(counts, 1)
		for len(vals) > 1 && vals[len(vals)-2] > vals[len(vals)-1] {
			// Merge the last two blocks.
			last := len(vals) - 1
			totW := wts[last-1] + wts[last]
			vals[last-1] = (vals[last-1]*wts[last-1] + vals[last]*wts[last]) / totW
			wts[last-1] = totW
			counts[last-1] += counts[last]
			vals = vals[:last]
			wts = wts[:last]
			counts = counts[:last]
		}
	}
	s.vals, s.wts, s.counts = vals, wts, counts
	// All reads of ys are complete, so writing dst is safe even when
	// the two alias.
	k := 0
	for b, v := range vals {
		for c := 0; c < counts[b]; c++ {
			dst[k] = v
			k++
		}
	}
}
