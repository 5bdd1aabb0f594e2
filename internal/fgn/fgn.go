// Package fgn generates fractional Gaussian noise (fGn) — the stationary
// increment process of fractional Brownian motion — which is the canonical
// self-similar process with Hurst parameter H.
//
// Two generators are provided: Hosking's exact sequential method (O(n²),
// useful for validation and short series) and the Davies–Harte circulant
// embedding method (O(n log n), exact when the embedding is non-negative
// definite, which holds for fGn).
//
// The production-site generators use fGn through a Gaussian copula: the
// fGn supplies the long-range-dependent ordering, and an inverse-CDF
// transform imposes the marginal distribution (lognormal runtimes,
// calibrated inter-arrivals). This makes the synthetic "production" logs
// self-similar, as the paper's Table 3 measures for the real ones, while
// the synthetic models remain short-range dependent.
package fgn

import (
	"fmt"
	"math"

	"coplot/internal/dist"
	"coplot/internal/fft"
	"coplot/internal/rng"
)

// Autocovariance returns the lag-k autocovariance of unit-variance fGn
// with Hurst parameter h:
// γ(k) = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
func Autocovariance(h float64, k int) float64 {
	if k == 0 {
		return 1
	}
	fk := math.Abs(float64(k))
	e := 2 * h
	return 0.5 * (math.Pow(fk+1, e) - 2*math.Pow(fk, e) + math.Pow(fk-1, e))
}

// validateH rejects Hurst parameters outside the open interval (0,1).
func validateH(h float64) error {
	if !(h > 0 && h < 1) {
		return fmt.Errorf("fgn: Hurst parameter %v outside (0,1)", h)
	}
	return nil
}

// Hosking generates n points of unit-variance fGn with Hurst parameter h
// using the exact Durbin–Levinson recursion. Runtime is O(n²).
func Hosking(r *rng.Source, h float64, n int) ([]float64, error) {
	if err := validateH(h); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("fgn: non-positive length %d", n)
	}
	out := make([]float64, n)
	phi := make([]float64, n)
	prevPhi := make([]float64, n)

	v := 1.0 // innovation variance
	out[0] = r.Norm()
	for i := 1; i < n; i++ {
		// Durbin–Levinson update of the partial autocorrelations.
		num := Autocovariance(h, i)
		for j := 0; j < i-1; j++ {
			num -= prevPhi[j] * Autocovariance(h, i-1-j)
		}
		phiII := num / v
		for j := 0; j < i-1; j++ {
			phi[j] = prevPhi[j] - phiII*prevPhi[i-2-j]
		}
		phi[i-1] = phiII
		v *= 1 - phiII*phiII

		mean := 0.0
		for j := 0; j < i; j++ {
			mean += phi[j] * out[i-1-j]
		}
		out[i] = mean + math.Sqrt(v)*r.Norm()
		copy(prevPhi[:i], phi[:i])
	}
	return out, nil
}

// DaviesHarte generates n points of unit-variance fGn with Hurst h using
// circulant embedding. Runtime is O(n log n).
func DaviesHarte(r *rng.Source, h float64, n int) ([]float64, error) {
	if err := validateH(h); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("fgn: non-positive length %d", n)
	}
	if n == 1 {
		return []float64{r.Norm()}, nil
	}
	// Embedding size: power of two at least 2n for FFT speed.
	g := 1
	for g < 2*n {
		g <<= 1
	}
	half := g / 2
	// First row of the circulant matrix.
	c := make([]complex128, g)
	for j := 0; j <= half; j++ {
		c[j] = complex(Autocovariance(h, j), 0)
	}
	for j := 1; j < half; j++ {
		c[g-j] = c[j]
	}
	lambda := fft.FFT(c)
	// Eigenvalues are real and, for fGn, non-negative; clamp the tiny
	// negative rounding noise.
	sq := make([]float64, g)
	for j := range lambda {
		lj := real(lambda[j])
		if lj < 0 {
			if lj < -1e-8 {
				return nil, fmt.Errorf("fgn: embedding not nonneg definite (λ=%v)", lj)
			}
			lj = 0
		}
		sq[j] = math.Sqrt(lj)
	}
	w := make([]complex128, g)
	w[0] = complex(sq[0]*r.Norm(), 0)
	w[half] = complex(sq[half]*r.Norm(), 0)
	for j := 1; j < half; j++ {
		re := r.Norm() / math.Sqrt2
		im := r.Norm() / math.Sqrt2
		w[j] = complex(sq[j]*re, sq[j]*im)
		w[g-j] = complex(sq[j]*re, -sq[j]*im)
	}
	spec := fft.FFT(w)
	scale := 1 / math.Sqrt(float64(g))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = real(spec[i]) * scale
	}
	return out, nil
}

// Standardize rescales a realization to zero sample mean and unit sample
// variance in place, returning the slice. Long-range-dependent series
// converge to their ensemble moments only at rate n^{H−1}, so a single
// realization can sit far from zero mean; standardizing before
// CopulaTransform makes the empirical marginal of the transformed series
// match the target quantiles closely.
func Standardize(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return x
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	variance := 0.0
	for _, v := range x {
		d := v - mean
		variance += d * d
	}
	variance /= float64(n)
	if variance == 0 {
		return x
	}
	inv := 1 / math.Sqrt(variance)
	for i := range x {
		x[i] = (x[i] - mean) * inv
	}
	return x
}

// Quantiler is a distribution that can be sampled through its inverse CDF;
// dist.Exponential and dist.LogNormal satisfy it.
type Quantiler interface {
	Quantile(p float64) float64
}

// CopulaTransform maps a (roughly unit-normal marginal) fGn sample to the
// target marginal distribution via the Gaussian copula: each value x is
// replaced by q.Quantile(Φ(x)). Rank correlations — and therefore the
// Hurst structure measured on ranks — are preserved, while the marginal
// distribution becomes exactly q.
func CopulaTransform(x []float64, q Quantiler) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		p := dist.NormCDF(v)
		// Guard the open interval for quantile functions that diverge.
		if p < 1e-12 {
			p = 1e-12
		} else if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		out[i] = q.Quantile(p)
	}
	return out
}
