package mds

import (
	"context"
	"math"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

func TestSSAScaleInvariance(t *testing.T) {
	// Alienation is rank-based: scaling all dissimilarities by a positive
	// constant must not change the fit quality.
	r := rng.New(50)
	pts := randomPoints(r, 10, 3)
	d := euclideanDistances(pts)
	res1, err := SSAContext(context.Background(), d, Options{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	scaled := d.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= 7.3
	}
	res2, err := SSAContext(context.Background(), scaled, Options{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Alienation-res2.Alienation) > 1e-6 {
		t.Fatalf("alienation changed under scaling: %v vs %v", res1.Alienation, res2.Alienation)
	}
}

func TestSSAPermutationInvariance(t *testing.T) {
	// Relabeling observations must not change the achievable fit.
	r := rng.New(52)
	pts := randomPoints(r, 9, 3)
	d := euclideanDistances(pts)
	res1, err := SSAContext(context.Background(), d, Options{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(9)
	pd := mat.New(9, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			pd.Set(i, j, d.At(perm[i], perm[j]))
		}
	}
	res2, err := SSAContext(context.Background(), pd, Options{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	// The solver may settle in a different near-optimal layout, but the
	// fit quality must be unaffected by relabeling.
	if math.Abs(res1.Alienation-res2.Alienation) > 0.02 {
		t.Fatalf("alienation changed under permutation: %v vs %v", res1.Alienation, res2.Alienation)
	}
	s1 := ShepardCorrelation(Shepard(d, res1.Config))
	s2 := ShepardCorrelation(Shepard(pd, res2.Config))
	if math.Abs(s1-s2) > 0.02 {
		t.Fatalf("Shepard correlation changed under permutation: %v vs %v", s1, s2)
	}
}

func TestClassicalTranslationInvariance(t *testing.T) {
	// Distances are translation-invariant, so shifting the source points
	// must not change the recovered configuration's distances.
	r := rng.New(54)
	pts := randomPoints(r, 8, 2)
	d1 := euclideanDistances(pts)
	shifted := make([][]float64, len(pts))
	for i, p := range pts {
		shifted[i] = []float64{p[0] + 100, p[1] - 42}
	}
	d2 := euclideanDistances(shifted)
	for i := range d1.Data {
		if math.Abs(d1.Data[i]-d2.Data[i]) > 1e-9 {
			t.Fatal("distance matrices differ under translation")
		}
	}
}
