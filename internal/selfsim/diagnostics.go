package selfsim

import (
	"errors"
	"fmt"
	"math"

	"coplot/internal/fft"
	"coplot/internal/plot"
	"coplot/internal/series"
	"coplot/internal/stats"
)

// ErrPeriodogramDegenerate reports a periodogram whose low-frequency
// cutoff leaves too few usable points for the log-log slope fit. It is
// returned (wrapped with detail) by PeriodogramData and Periodogram so
// callers can distinguish a degenerate series from a malformed one.
var ErrPeriodogramDegenerate = errors.New("selfsim: periodogram fit degenerate")

// FitData is the diagnostic behind one Hurst estimate: the points of the
// appendix's log-log plot (a pox plot, variance-time plot, or
// periodogram) together with the fitted power law.
type FitData struct {
	// Kind names the diagnostic ("pox", "variance-time", "periodogram").
	Kind string
	// X, Y are the raw (untransformed) plot points.
	X, Y []float64
	// Slope and Intercept describe the least-squares line in log-log
	// space: log y ≈ Intercept + Slope·log x.
	Slope, Intercept float64
	// R is the correlation of the log-log fit.
	R float64
	// H is the Hurst estimate implied by the slope.
	H float64
}

// fitLogLog fits log y on log x, skipping non-positive pairs.
func fitLogLog(xs, ys []float64) (slope, intercept, r float64, err error) {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return 0, 0, 0, fmt.Errorf("selfsim: fewer than 2 usable points")
	}
	slope, intercept, r = stats.OLS(lx, ly)
	return slope, intercept, r, nil
}

// RSData returns the pox-plot diagnostic of R/S analysis: mean R/S per
// block size, with the fitted slope equal to the Hurst estimate
// (equation 15).
func RSData(x []float64) (FitData, error) {
	if len(x) < MinSeriesLen {
		return FitData{}, fmt.Errorf("selfsim: series of %d too short (min %d)", len(x), MinSeriesLen)
	}
	sizes := series.BlockSizes(8, len(x)/4, 1.5)
	var ns, rs []float64
	for _, n := range sizes {
		blocks := len(x) / n
		sum, cnt := 0.0, 0
		for b := 0; b < blocks; b++ {
			v, ok := rescaledRange(x[b*n : (b+1)*n])
			if ok {
				sum += v
				cnt++
			}
		}
		if cnt > 0 {
			ns = append(ns, float64(n))
			rs = append(rs, sum/float64(cnt))
		}
	}
	slope, intercept, r, err := fitLogLog(ns, rs)
	if err != nil {
		return FitData{}, err
	}
	return FitData{Kind: "pox", X: ns, Y: rs,
		Slope: slope, Intercept: intercept, R: r, H: clampH(slope)}, nil
}

// VarianceTimeData returns the variance-time diagnostic: the variance of
// the m-aggregated series per block size m, whose slope is −β and
// H = 1 − β/2 (equation 17).
func VarianceTimeData(x []float64) (FitData, error) {
	if len(x) < MinSeriesLen {
		return FitData{}, fmt.Errorf("selfsim: series of %d too short (min %d)", len(x), MinSeriesLen)
	}
	sizes := series.BlockSizes(1, len(x)/8, 1.5)
	var ms, vs []float64
	for _, m := range sizes {
		agg := series.Aggregate(x, m)
		if len(agg) < 8 {
			continue
		}
		v := stats.Variance(agg)
		if v > 0 {
			ms = append(ms, float64(m))
			vs = append(vs, v)
		}
	}
	slope, intercept, r, err := fitLogLog(ms, vs)
	if err != nil {
		return FitData{}, err
	}
	return FitData{Kind: "variance-time", X: ms, Y: vs,
		Slope: slope, Intercept: intercept, R: r, H: clampH(1 + slope/2)}, nil
}

// PeriodogramData returns the low-frequency periodogram diagnostic,
// whose slope near the origin is 1 − 2H (equations 18–19).
func PeriodogramData(x []float64) (FitData, error) {
	if len(x) < MinSeriesLen {
		return FitData{}, fmt.Errorf("selfsim: series of %d too short (min %d)", len(x), MinSeriesLen)
	}
	mean := stats.Mean(x)
	centered := make([]float64, len(x))
	for i, v := range x {
		centered[i] = v - mean
	}
	freqs, power := fft.Periodogram(centered)
	k := int(float64(len(freqs)) * 0.1)
	if k < 8 {
		k = 8
	}
	if k > len(freqs) {
		k = len(freqs)
	}
	// The conventional lowest-10% cutoff can leave fewer than 2
	// fit-able frequencies — the power vanishes exactly for constant
	// series at the minimum length — and the slope fit through them is
	// degenerate. Fail loudly at the cutoff instead of reporting a
	// perfect-looking low-frequency slope downstream.
	usable := 0
	for i := 0; i < k; i++ {
		if freqs[i] > 0 && power[i] > 0 {
			usable++
		}
	}
	if usable < 2 {
		return FitData{}, fmt.Errorf("%w: %d of %d frequencies below the cutoff usable (series length %d)",
			ErrPeriodogramDegenerate, usable, k, len(x))
	}
	slope, intercept, r, err := fitLogLog(freqs[:k], power[:k])
	if err != nil {
		return FitData{}, err
	}
	return FitData{Kind: "periodogram", X: freqs[:k], Y: power[:k],
		Slope: slope, Intercept: intercept, R: r, H: clampH((1 - slope) / 2)}, nil
}

// SVG renders the diagnostic as a log-log scatter with its fitted line.
func (d FitData) SVG(title string) (string, error) {
	if len(d.X) == 0 {
		return "", fmt.Errorf("selfsim: empty diagnostic")
	}
	// Fitted power law evaluated at the data extremes.
	minX, maxX := d.X[0], d.X[0]
	for _, v := range d.X {
		if v < minX {
			minX = v
		}
		if v > maxX {
			maxX = v
		}
	}
	lineX := []float64{minX, maxX}
	lineY := []float64{
		math.Exp(d.Intercept + d.Slope*math.Log(minX)),
		math.Exp(d.Intercept + d.Slope*math.Log(maxX)),
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("%s (H = %.2f)", title, d.H),
		XLabel: xLabelFor(d.Kind),
		YLabel: yLabelFor(d.Kind),
		LogX:   true, LogY: true,
		Series: []plot.Series{
			{Name: "observed", X: d.X, Y: d.Y},
			{Name: fmt.Sprintf("fit slope %.2f", d.Slope), X: lineX, Y: lineY, IsLine: true},
		},
	}
	return c.SVG()
}

func xLabelFor(kind string) string {
	switch kind {
	case "pox":
		return "block size n"
	case "variance-time":
		return "aggregation level m"
	default:
		return "frequency"
	}
}

func yLabelFor(kind string) string {
	switch kind {
	case "pox":
		return "R/S"
	case "variance-time":
		return "Var(X^(m))"
	default:
		return "Per(w)"
	}
}
