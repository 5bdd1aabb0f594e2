package mds

import (
	"fmt"
	"math"
	"testing"

	"coplot/internal/par"
	"coplot/internal/rng"
)

// randomPairSet draws m (dissimilarity, distance) pairs. Quantizing a
// slice of the draws manufactures exact ties in both sequences — the
// tie handling of the rank decomposition is where an implementation
// would silently diverge from the quadratic definition. corr > 0 mixes
// the dissimilarity into the distance, the regime of a real solve
// (distances track dissimilarities, |μ| well away from 0).
func randomPairSet(r *rng.Source, m int, offset, corr float64) ([]pair, []float64) {
	diss := make([]pair, m)
	dist := make([]float64, m)
	for k := 0; k < m; k++ {
		s := 3 * r.Float64()
		d := (1-corr)*2*r.Float64() + corr*s
		if r.Float64() < 0.25 { // force tie clusters
			s = math.Round(s*8) / 8
			d = math.Round(d*8) / 8
		}
		diss[k] = pair{i: 0, j: k + 1, s: offset + s}
		dist[k] = offset + d
	}
	return diss, dist
}

// alienationNaiveCompensated is the same O(m²) double loop as
// alienationNaive with Neumaier-compensated accumulation: at millions
// of terms the plain oracle's own summation noise reaches ~1e-12, so
// the property test compares against the accurately-summed form of the
// identical sums instead.
func alienationNaiveCompensated(diss []pair, dist []float64) float64 {
	m := len(diss)
	var num, numC, den, denC float64
	add := func(sum, comp *float64, v float64) {
		t := *sum + v
		if math.Abs(*sum) >= math.Abs(v) {
			*comp += (*sum - t) + v
		} else {
			*comp += (v - t) + *sum
		}
		*sum = t
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			ds := diss[a].s - diss[b].s
			dd := dist[a] - dist[b]
			add(&num, &numC, ds*dd)
			add(&den, &denC, math.Abs(ds)*math.Abs(dd))
		}
	}
	return alienationFromMu(num+numC, den+denC)
}

// TestAlienationFastMatchesNaive pins the O(m log m) decomposition to
// the O(m²) double loop of equation (3): on random pair sets — with
// ties, a large common offset that stresses the centered identity's
// cancellation, and solve-like correlated distances — the two must
// agree to 1e-12.
func TestAlienationFastMatchesNaive(t *testing.T) {
	sizes := []int{1, 2, 37, 500, 2048, 9000}
	if !testing.Short() {
		sizes = append(sizes, 20011)
	}
	for seed := uint64(0); seed < 6; seed++ {
		for _, m := range sizes {
			for _, offset := range []float64{0, 100} {
				for _, corr := range []float64{0, 0.7} {
					name := fmt.Sprintf("seed%d/m%d/offset%g/corr%g", seed, m, offset, corr)
					t.Run(name, func(t *testing.T) {
						r := rng.New(7000 + seed)
						diss, dist := randomPairSet(r, m, offset, corr)
						want := alienationNaiveCompensated(diss, dist)
						got := alienationFast(diss, dist, nil)
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("fast Θ = %.17g, naive Θ = %.17g (diff %g)", got, want, got-want)
						}
					})
				}
			}
		}
	}
}

// TestAlienationFastDeterministicAcrossBudgets: the blocked moment pass
// must be byte-identical at any worker count (fixed partition, ordered
// reduction), so the fast path is one value, not one per -jobs.
func TestAlienationFastDeterministicAcrossBudgets(t *testing.T) {
	r := rng.New(99)
	diss, dist := randomPairSet(r, 50000, 10, 0.5)
	serial := alienationFast(diss, dist, nil)
	for _, jobs := range []int{2, 4, 7} {
		got := alienationFast(diss, dist, par.NewBudget(jobs))
		if got != serial {
			t.Fatalf("jobs=%d: Θ = %.17g, serial Θ = %.17g", jobs, got, serial)
		}
	}
}

// TestAlienationOfDispatch: below the threshold the dispatching entry
// point must return the bit-exact naive value — the paper's 15×15
// matrices (105 pairs) and all small fixtures ride on that.
func TestAlienationOfDispatch(t *testing.T) {
	r := rng.New(123)
	diss, dist := randomPairSet(r, 105, 0, 0.5)
	if got, want := alienationOf(diss, dist, nil), alienationNaive(diss, dist); got != want {
		t.Fatalf("small input not bit-identical to naive: %v vs %v", got, want)
	}
	diss, dist = randomPairSet(r, alienationNaiveMaxPairs+1, 0, 0.5)
	if got, want := alienationOf(diss, dist, nil), alienationFast(diss, dist, nil); got != want {
		t.Fatalf("large input did not take the fast path: %v vs %v", got, want)
	}
}
