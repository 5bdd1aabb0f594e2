package mds

import (
	"context"
	"errors"
	"math"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// euclideanDistances builds the exact distance matrix of a point set.
func euclideanDistances(pts [][]float64) *mat.Matrix {
	n := len(pts)
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for c := range pts[i] {
				df := pts[i][c] - pts[j][c]
				s += df * df
			}
			d.Set(i, j, math.Sqrt(s))
		}
	}
	return d
}

func configDistance(x *mat.Matrix, i, j int) float64 {
	s := 0.0
	for c := 0; c < x.Cols; c++ {
		df := x.At(i, c) - x.At(j, c)
		s += df * df
	}
	return math.Sqrt(s)
}

func randomPoints(r *rng.Source, n, dims int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dims)
		for c := range pts[i] {
			pts[i][c] = r.Norm() * 3
		}
	}
	return pts
}

func TestClassicalRecoversExactDistances(t *testing.T) {
	r := rng.New(1)
	pts := randomPoints(r, 10, 2)
	d := euclideanDistances(pts)
	x, err := Classical(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Distances in the recovered configuration must match the input.
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if math.Abs(configDistance(x, i, j)-d.At(i, j)) > 1e-7 {
				t.Fatalf("distance (%d,%d): %v vs %v", i, j,
					configDistance(x, i, j), d.At(i, j))
			}
		}
	}
}

func TestClassicalRejectsBadInput(t *testing.T) {
	if _, err := Classical(mat.New(2, 3), 2); err == nil {
		t.Fatal("non-square accepted")
	}
	d := mat.New(3, 3)
	d.Set(0, 0, 1)
	if _, err := Classical(d, 2); err == nil {
		t.Fatal("non-zero diagonal accepted")
	}
	d2 := mat.New(3, 3)
	d2.Set(0, 1, -1)
	d2.Set(1, 0, -1)
	if _, err := Classical(d2, 2); err == nil {
		t.Fatal("negative dissimilarity accepted")
	}
	d3 := mat.New(3, 3)
	d3.Set(0, 1, 1)
	d3.Set(1, 0, 2)
	if _, err := Classical(d3, 2); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

func TestSSAPerfectEuclideanInput(t *testing.T) {
	// Euclidean 2-D distances admit a perfect 2-D embedding, so the
	// alienation must be essentially zero.
	r := rng.New(2)
	pts := randomPoints(r, 12, 2)
	d := euclideanDistances(pts)
	res, err := SSAContext(context.Background(), d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alienation > 0.01 {
		t.Fatalf("alienation = %v on perfectly embeddable input", res.Alienation)
	}
	if res.Stress > 0.01 {
		t.Fatalf("stress = %v on perfectly embeddable input", res.Stress)
	}
}

func TestSSAOrderPreservation(t *testing.T) {
	// SSA must preserve rank order of distances on a monotone transform
	// of Euclidean distances (the defining non-metric property).
	r := rng.New(3)
	pts := randomPoints(r, 10, 2)
	d := euclideanDistances(pts)
	// Apply a strictly monotone nonlinear distortion to dissimilarities.
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if i != j {
				v := d.At(i, j)
				d.Set(i, j, math.Sqrt(v)+v*v*0.05)
			}
		}
	}
	res, err := SSAContext(context.Background(), d, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alienation > 0.05 {
		t.Fatalf("alienation = %v after monotone distortion", res.Alienation)
	}
}

func TestSSAImprovesOnClassicalForCityBlock(t *testing.T) {
	// City-block dissimilarities of high-dimensional data are not
	// Euclidean; SSA should fit at least as well as classical scaling.
	r := rng.New(4)
	n, p := 12, 8
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, p)
		for c := range rows[i] {
			rows[i][c] = r.Norm()
		}
	}
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for c := 0; c < p; c++ {
				s += math.Abs(rows[i][c] - rows[j][c])
			}
			d.Set(i, j, s)
		}
	}
	x0, err := Classical(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := AlienationWith(d, x0, nil)
	res, err := SSAContext(context.Background(), d, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alienation > base+1e-9 {
		t.Fatalf("SSA alienation %v worse than classical %v", res.Alienation, base)
	}
}

func TestSSAMethods(t *testing.T) {
	r := rng.New(5)
	pts := randomPoints(r, 9, 3)
	d := euclideanDistances(pts)
	for _, m := range []DisparityMethod{RankImage, Monotone, Metric} {
		res, err := SSAContext(context.Background(), d, Options{Method: m, Seed: 10})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		// 3-D points in a 2-D map cannot be perfect but must be sane.
		if res.Alienation < 0 || res.Alienation > 0.5 {
			t.Fatalf("method %d: alienation = %v", m, res.Alienation)
		}
		if res.Config.Rows != 9 || res.Config.Cols != 2 {
			t.Fatalf("method %d: config shape %dx%d", m, res.Config.Rows, res.Config.Cols)
		}
	}
}

func TestSSATooFewObservations(t *testing.T) {
	d := mat.New(2, 2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	if _, err := SSAContext(context.Background(), d, Options{}); err == nil {
		t.Fatal("2 observations accepted")
	}
}

func TestSSAConfigCentered(t *testing.T) {
	r := rng.New(6)
	pts := randomPoints(r, 8, 2)
	res, err := SSAContext(context.Background(), euclideanDistances(pts), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		m := 0.0
		for i := 0; i < res.Config.Rows; i++ {
			m += res.Config.At(i, c)
		}
		if math.Abs(m/float64(res.Config.Rows)) > 1e-9 {
			t.Fatalf("dimension %d not centered", c)
		}
	}
}

func TestAlienationBounds(t *testing.T) {
	// Θ must lie in [0,1] for arbitrary configurations.
	r := rng.New(7)
	pts := randomPoints(r, 10, 2)
	d := euclideanDistances(pts)
	// Random (bad) configuration.
	bad := mat.New(10, 2)
	for i := range bad.Data {
		bad.Data[i] = r.Norm()
	}
	a := AlienationWith(d, bad, nil)
	if a < 0 || a > 1 {
		t.Fatalf("alienation = %v outside [0,1]", a)
	}
	// A perfect configuration has alienation ~0.
	pm := mat.New(10, 2)
	for i, p := range pts {
		pm.Set(i, 0, p[0])
		pm.Set(i, 1, p[1])
	}
	if g := AlienationWith(d, pm, nil); g > 1e-9 {
		t.Fatalf("perfect configuration alienation = %v", g)
	}
}

func TestAlienationReflectsQuality(t *testing.T) {
	// A reversed configuration (distance order inverted) must be worse
	// than the true one.
	pts := [][]float64{{0, 0}, {1, 0}, {4, 0}, {9, 0}}
	d := euclideanDistances(pts)
	good := mat.FromRows(pts)
	reversedPts := [][]float64{{9, 0}, {4, 0}, {1, 0}, {0, 0}}
	_ = reversedPts
	// Swap nearest and farthest points to break monotonicity.
	brokenPts := [][]float64{{9, 0}, {1, 0}, {4, 0}, {0, 0}}
	broken := mat.FromRows(brokenPts)
	if AlienationWith(d, good, nil) >= AlienationWith(d, broken, nil) {
		t.Fatal("alienation did not penalize a broken configuration")
	}
}

func TestRotatePrincipalDeterministic(t *testing.T) {
	// After principal-axis rotation the cross moment Σ x·y is ~0.
	r := rng.New(8)
	pts := randomPoints(r, 15, 2)
	res, err := SSAContext(context.Background(), euclideanDistances(pts), Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sxy := 0.0
	for i := 0; i < res.Config.Rows; i++ {
		sxy += res.Config.At(i, 0) * res.Config.At(i, 1)
	}
	if math.Abs(sxy) > 1e-6*float64(res.Config.Rows) {
		t.Fatalf("configuration not in principal axes: Σxy = %v", sxy)
	}
}

func BenchmarkSSA15Points(b *testing.B) {
	r := rng.New(9)
	pts := randomPoints(r, 15, 6)
	d := euclideanDistances(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSAContext(context.Background(), d, Options{Seed: 13}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSSAContextCancelledMidRun(t *testing.T) {
	// A generous iteration budget plus an impossibly tight tolerance
	// keeps the solver iterating, so the cancellation must land between
	// iterations, not after convergence.
	d := randomDissim(rng.New(40), 24)
	ctx, cancel := context.WithCancel(context.Background())
	iters := 0
	opts := Options{MaxIter: 100000, Tol: 1e-300, Restarts: -1,
		Trace: func(start, iter int, stress float64) {
			iters++
			if iters == 3 {
				cancel()
			}
		}}
	_, err := SSAContext(ctx, d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if iters > 4 {
		t.Fatalf("solver kept iterating %d times after cancellation", iters)
	}
}
