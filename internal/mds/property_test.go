package mds

import (
	"context"
	"fmt"
	"math"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// randomDissim builds a random symmetric dissimilarity matrix: half the
// seeds give exact Euclidean distances of a random point cloud, half a
// perturbed (hence non-Euclidean) variant — the regime checkDissim still
// accepts and SSA must handle.
func randomDissim(r *rng.Source, n int) *mat.Matrix {
	pts := randomPoints(r, n, 3)
	d := euclideanDistances(pts)
	if r.Float64() < 0.5 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := d.At(i, j) * (0.5 + r.Float64())
				d.Set(i, j, v)
				d.Set(j, i, v)
			}
		}
	}
	return d
}

// randomConfig draws an arbitrary 2-D configuration, unrelated to any
// fit — Θ's symmetries must hold for every configuration, not just
// optimal ones.
func randomConfig(r *rng.Source, n int) *mat.Matrix {
	x := mat.New(n, 2)
	for i := range x.Data {
		x.Data[i] = r.Norm() * 3
	}
	return x
}

// TestAlienationInvariantUnderConfigSymmetries is the satellite's first
// property: Θ depends on a configuration only through its interpoint
// distances and on observations only as unordered pairs, so rotating or
// reflecting the configuration, or relabeling the observations jointly
// in the matrix and the configuration, must not move Θ at all.
func TestAlienationInvariantUnderConfigSymmetries(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(1000 + seed)
			n := 4 + int(seed%6) // 4..9 observations
			d := randomDissim(r, n)
			x := randomConfig(r, n)
			theta := AlienationWith(d, x, nil)
			if math.IsNaN(theta) || theta < 0 || theta > 1 {
				t.Fatalf("theta = %v outside [0,1]", theta)
			}

			// Rotation by a random angle.
			angle := r.Float64() * 2 * math.Pi
			c, s := math.Cos(angle), math.Sin(angle)
			rot := mat.New(n, 2)
			for i := 0; i < n; i++ {
				a, b := x.At(i, 0), x.At(i, 1)
				rot.Set(i, 0, c*a-s*b)
				rot.Set(i, 1, s*a+c*b)
			}
			if got := AlienationWith(d, rot, nil); math.Abs(got-theta) > 1e-9 {
				t.Fatalf("rotation moved theta: %v -> %v", theta, got)
			}

			// Reflection across the y axis.
			ref := x.Clone()
			for i := 0; i < n; i++ {
				ref.Set(i, 0, -ref.At(i, 0))
			}
			if got := AlienationWith(d, ref, nil); math.Abs(got-theta) > 1e-9 {
				t.Fatalf("reflection moved theta: %v -> %v", theta, got)
			}

			// Joint relabeling of observations.
			perm := r.Perm(n)
			pd := mat.New(n, n)
			px := mat.New(n, 2)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					pd.Set(i, j, d.At(perm[i], perm[j]))
				}
				px.Set(i, 0, x.At(perm[i], 0))
				px.Set(i, 1, x.At(perm[i], 1))
			}
			if got := AlienationWith(pd, px, nil); math.Abs(got-theta) > 1e-9 {
				t.Fatalf("relabeling moved theta: %v -> %v", theta, got)
			}
		})
	}
}

// TestSmacofStressMonotone is the satellite's second property: within
// every start, the stress-1 sequence the solver reports through
// Options.Trace must be non-increasing — the majorization guarantee.
// That guarantee is exact only while the disparity targets stay fixed:
// metric SMACOF is held essentially exactly, monotone regression gets a
// small tolerance for its per-iteration rescale, and Guttman's
// rank-image transformation — which re-derives its targets from the
// current distances and is known not to descend strictly — is allowed
// small per-step rises but must still descend overall.
func TestSmacofStressMonotone(t *testing.T) {
	for _, tc := range []struct {
		method DisparityMethod
		name   string
		relTol float64
	}{
		{Metric, "metric", 1e-9},
		{Monotone, "monotone", 1e-6},
		{RankImage, "rank-image", 5e-2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 10; seed++ {
				r := rng.New(2000 + seed)
				n := 5 + int(seed%5) // 5..9 observations
				d := randomDissim(r, n)
				trace := map[int][]float64{}
				_, err := SSAContext(context.Background(), d, Options{
					Method:   tc.method,
					Seed:     seed,
					Restarts: 2,
					Trace: func(start, iter int, stress float64) {
						if iter != len(trace[start]) {
							t.Fatalf("start %d: iteration %d reported out of order", start, iter)
						}
						trace[start] = append(trace[start], stress)
					},
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(trace) != 3 { // classical + 2 restarts
					t.Fatalf("seed %d: traced %d starts, want 3", seed, len(trace))
				}
				for start, ss := range trace {
					for k := 1; k < len(ss); k++ {
						if ss[k] > ss[k-1]+tc.relTol*ss[k-1]+1e-12 {
							t.Fatalf("seed %d start %d: stress rose at iteration %d: %v -> %v",
								seed, start, k, ss[k-1], ss[k])
						}
					}
					if last := ss[len(ss)-1]; last > ss[0]+1e-9 {
						t.Fatalf("seed %d start %d: no net descent: %v -> %v", seed, start, ss[0], last)
					}
				}
			}
		})
	}
}
