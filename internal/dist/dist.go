// Package dist implements the random-variate families used by the five
// synthetic workload models and by the calibrated site generators:
// exponential and hyper-exponential, Erlang and hyper-Erlang (Jann's
// model), gamma and hyper-gamma (Lublin's model), Weibull, lognormal,
// Pareto, Downey's log-uniform, Zipf, and discrete job-size laws with
// power-of-two emphasis.
//
// Every distribution is a value type carrying its parameters; sampling
// takes an explicit *rng.Source so callers control the random stream.
package dist

import (
	"fmt"
	"math"

	"coplot/internal/rng"
)

// Sampler is the common interface: a distribution that can draw a variate
// from the supplied source.
type Sampler interface {
	Sample(r *rng.Source) float64
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws a uniform variate.
func (u Uniform) Sample(r *rng.Source) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns the distribution mean.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential is the exponential distribution with rate Lambda.
type Exponential struct{ Lambda float64 }

// Sample draws an exponential variate.
func (e Exponential) Sample(r *rng.Source) float64 { return r.Exp() / e.Lambda }

// Mean returns 1/Lambda.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Quantile returns the p-quantile of the exponential distribution.
func (e Exponential) Quantile(p float64) float64 { return -math.Log(1-p) / e.Lambda }

// HyperExp is a finite mixture of exponentials: with probability P[i] the
// variate is exponential with rate Lambda[i]. Two- and three-stage
// hyper-exponentials are the classic long-tailed runtime models the paper
// discusses in section 8.
type HyperExp struct {
	P      []float64
	Lambda []float64
}

// NewHyperExp validates and builds a hyper-exponential distribution.
func NewHyperExp(p, lambda []float64) (HyperExp, error) {
	if len(p) != len(lambda) || len(p) == 0 {
		return HyperExp{}, fmt.Errorf("dist: hyperexp needs equal non-empty P and Lambda")
	}
	sum := 0.0
	for i, pi := range p {
		if pi < 0 || lambda[i] <= 0 {
			return HyperExp{}, fmt.Errorf("dist: hyperexp invalid stage %d", i)
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		return HyperExp{}, fmt.Errorf("dist: hyperexp probabilities sum to %v", sum)
	}
	return HyperExp{P: p, Lambda: lambda}, nil
}

// Sample draws a hyper-exponential variate.
func (h HyperExp) Sample(r *rng.Source) float64 {
	u := r.Float64()
	acc := 0.0
	for i, p := range h.P {
		acc += p
		if u < acc {
			return r.Exp() / h.Lambda[i]
		}
	}
	return r.Exp() / h.Lambda[len(h.Lambda)-1]
}

// Mean returns the mixture mean.
func (h HyperExp) Mean() float64 {
	m := 0.0
	for i, p := range h.P {
		m += p / h.Lambda[i]
	}
	return m
}

// Erlang is the sum of K independent exponentials of rate Lambda.
type Erlang struct {
	K      int
	Lambda float64
}

// Sample draws an Erlang variate.
func (e Erlang) Sample(r *rng.Source) float64 {
	// Product of uniforms avoids K log calls.
	prod := 1.0
	for i := 0; i < e.K; i++ {
		prod *= r.OpenFloat64()
	}
	return -math.Log(prod) / e.Lambda
}

// Mean returns K/Lambda.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Lambda }

// HyperErlang is a mixture of Erlang distributions of common order, the
// family Jann et al. fitted to the CTC workload by matching the first
// three moments per processor range.
type HyperErlang struct {
	P      []float64 // mixing probabilities, sum 1
	K      []int     // stage counts
	Lambda []float64 // stage rates
}

// Sample draws a hyper-Erlang variate.
func (h HyperErlang) Sample(r *rng.Source) float64 {
	u := r.Float64()
	acc := 0.0
	idx := len(h.P) - 1
	for i, p := range h.P {
		acc += p
		if u < acc {
			idx = i
			break
		}
	}
	return Erlang{K: h.K[idx], Lambda: h.Lambda[idx]}.Sample(r)
}

// Mean returns the mixture mean.
func (h HyperErlang) Mean() float64 {
	m := 0.0
	for i, p := range h.P {
		m += p * float64(h.K[i]) / h.Lambda[i]
	}
	return m
}

// Gamma is the gamma distribution with shape Alpha and scale Beta
// (mean Alpha*Beta).
type Gamma struct{ Alpha, Beta float64 }

// Sample draws a gamma variate using the Marsaglia–Tsang method, with the
// standard boost for Alpha < 1.
func (g Gamma) Sample(r *rng.Source) float64 {
	alpha := g.Alpha
	boost := 1.0
	if alpha < 1 {
		boost = math.Pow(r.OpenFloat64(), 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Norm()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.OpenFloat64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Beta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Beta
		}
	}
}

// Mean returns Alpha*Beta.
func (g Gamma) Mean() float64 { return g.Alpha * g.Beta }

// HyperGamma is a two-component gamma mixture; Lublin's model uses it for
// runtimes with the mixing probability depending linearly on the job size.
type HyperGamma struct {
	P  float64 // probability of the first component
	G1 Gamma
	G2 Gamma
}

// Sample draws a hyper-gamma variate.
func (h HyperGamma) Sample(r *rng.Source) float64 {
	if r.Float64() < h.P {
		return h.G1.Sample(r)
	}
	return h.G2.Sample(r)
}

// Mean returns the mixture mean.
func (h HyperGamma) Mean() float64 { return h.P*h.G1.Mean() + (1-h.P)*h.G2.Mean() }

// Weibull is the Weibull distribution with shape K and scale Lambda.
type Weibull struct{ K, Lambda float64 }

// Sample draws a Weibull variate by inversion.
func (w Weibull) Sample(r *rng.Source) float64 {
	return w.Lambda * math.Pow(r.Exp(), 1/w.K)
}

// LogNormal is the lognormal distribution: ln X ~ N(Mu, Sigma²).
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a lognormal variate.
func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*r.Norm())
}

// Quantile returns the p-quantile.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormQuantile(p))
}

// LogNormalFromMedianInterval constructs the lognormal whose median is m
// and whose 90% interval (p95 − p5) is iv. Using
// p95 − p5 = m·(e^{1.645σ} − e^{−1.645σ}) = 2m·sinh(1.645σ),
// σ = asinh(iv/(2m))/1.645. This closed form is what lets the site
// generators hit the paper's Table 1 medians and intervals directly.
func LogNormalFromMedianInterval(m, iv float64) LogNormal {
	const z95 = 1.6448536269514722
	sigma := math.Asinh(iv/(2*m)) / z95
	return LogNormal{Mu: math.Log(m), Sigma: sigma}
}

// Pareto is the Pareto distribution with minimum Xm and tail index Alpha.
type Pareto struct{ Xm, Alpha float64 }

// Sample draws a Pareto variate by inversion.
func (p Pareto) Sample(r *rng.Source) float64 {
	return p.Xm / math.Pow(r.OpenFloat64(), 1/p.Alpha)
}

// LogUniform is Downey's log-uniform distribution: ln X uniform on
// [ln Lo, ln Hi]. Downey uses it for total service time and average
// parallelism.
type LogUniform struct{ Lo, Hi float64 }

// Sample draws a log-uniform variate.
func (l LogUniform) Sample(r *rng.Source) float64 {
	return math.Exp(math.Log(l.Lo) + (math.Log(l.Hi)-math.Log(l.Lo))*r.Float64())
}

// Zipf draws integers in [1, N] with probability proportional to
// 1/rank^S. Used for repeated-execution counts in the Feitelson models.
type Zipf struct {
	N int
	S float64

	cdf []float64 // lazily built cumulative weights
}

// NewZipf precomputes the cumulative distribution.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{N: n, S: s}
	z.cdf = make([]float64, n)
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), s)
		z.cdf[i-1] = acc
	}
	for i := range z.cdf {
		z.cdf[i] /= acc
	}
	return z
}

// SampleInt draws a Zipf-distributed integer in [1, N].
func (z *Zipf) SampleInt(r *rng.Source) int {
	u := r.Float64()
	lo, hi := 0, z.N-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Sample implements Sampler.
func (z *Zipf) Sample(r *rng.Source) float64 { return float64(z.SampleInt(r)) }

// Discrete draws from an explicit finite distribution over Values with
// Weights (not necessarily normalized).
type Discrete struct {
	Values  []float64
	Weights []float64

	cum []float64
}

// NewDiscrete validates weights and precomputes the cumulative table.
func NewDiscrete(values, weights []float64) (*Discrete, error) {
	if len(values) != len(weights) || len(values) == 0 {
		return nil, fmt.Errorf("dist: discrete needs equal non-empty values and weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("dist: negative weight at %d", i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: all-zero weights")
	}
	d := &Discrete{Values: values, Weights: weights, cum: make([]float64, len(values))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		d.cum[i] = acc
	}
	return d, nil
}

// Sample draws a value according to the weights.
func (d *Discrete) Sample(r *rng.Source) float64 {
	u := r.Float64()
	lo, hi := 0, len(d.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.Values[lo]
}

// Quantile returns the p-quantile of the uniform distribution.
func (u Uniform) Quantile(p float64) float64 { return u.Lo + (u.Hi-u.Lo)*p }

// Quantile returns the p-quantile of the Weibull distribution.
func (w Weibull) Quantile(p float64) float64 {
	return w.Lambda * math.Pow(-math.Log(1-p), 1/w.K)
}

// Quantile returns the p-quantile of the Pareto distribution.
func (pr Pareto) Quantile(p float64) float64 {
	return pr.Xm / math.Pow(1-p, 1/pr.Alpha)
}

// Quantile returns the p-quantile of the log-uniform distribution.
func (l LogUniform) Quantile(p float64) float64 {
	return math.Exp(math.Log(l.Lo) + (math.Log(l.Hi)-math.Log(l.Lo))*p)
}
