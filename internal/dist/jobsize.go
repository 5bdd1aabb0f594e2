package dist

import (
	"math"

	"coplot/internal/rng"
)

// JobSize draws job sizes (degrees of parallelism) in [1, MaxProcs] from a
// roughly harmonic base law with extra mass on powers of two — the
// "hand-tailored distribution of job sizes" of the Feitelson models, and
// the shape observed in production logs.
type JobSize struct {
	MaxProcs int
	// Pow2Boost multiplies the base weight of exact powers of two. A value
	// around 10 reproduces the strong spikes seen in production logs.
	Pow2Boost float64
	// HarmonicOrder is the exponent of the 1/size^order base law; 1.5 is
	// the value used in Feitelson's 1996 packing study.
	HarmonicOrder float64

	d *Discrete
}

// NewJobSize precomputes the discrete size table.
func NewJobSize(maxProcs int, pow2Boost, harmonicOrder float64) *JobSize {
	vals := make([]float64, maxProcs)
	wts := make([]float64, maxProcs)
	for s := 1; s <= maxProcs; s++ {
		w := 1 / math.Pow(float64(s), harmonicOrder)
		if isPow2(s) {
			w *= pow2Boost
		}
		vals[s-1] = float64(s)
		wts[s-1] = w
	}
	d, err := NewDiscrete(vals, wts)
	if err != nil {
		panic("dist: NewJobSize internal error: " + err.Error())
	}
	return &JobSize{MaxProcs: maxProcs, Pow2Boost: pow2Boost, HarmonicOrder: harmonicOrder, d: d}
}

// SampleInt draws a job size.
func (j *JobSize) SampleInt(r *rng.Source) int { return int(j.d.Sample(r)) }

// Sample implements Sampler.
func (j *JobSize) Sample(r *rng.Source) float64 { return j.d.Sample(r) }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
