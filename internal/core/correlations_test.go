package core

import (
	"context"
	"math"
	"testing"

	"coplot/internal/mds"
)

func TestImpliedCorrelation(t *testing.T) {
	ds := syntheticDataset(14, 0.1, 30)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}
	// a1 and a2 measure the same latent: implied correlation near 1.
	c, err := res.ImpliedCorrelation("a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.8 {
		t.Fatalf("implied corr(a1,a2) = %v", c)
	}
	// anti is -a1: implied correlation near -1.
	c, err = res.ImpliedCorrelation("a1", "anti")
	if err != nil {
		t.Fatal(err)
	}
	if c > -0.8 {
		t.Fatalf("implied corr(a1,anti) = %v", c)
	}
	if _, err := res.ImpliedCorrelation("a1", "nope"); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := res.ImpliedCorrelation("nope", "a1"); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestCorrelationFidelity(t *testing.T) {
	// On clean two-factor data the arrow cosines should track the
	// Pearson correlations closely.
	ds := syntheticDataset(16, 0.1, 32)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 33}})
	if err != nil {
		t.Fatal(err)
	}
	meanErr, worstPair, worstErr := CorrelationFidelity(ds, res)
	if math.IsNaN(meanErr) || meanErr > 0.25 {
		t.Fatalf("mean |implied - actual| = %v", meanErr)
	}
	if worstErr < meanErr {
		t.Fatal("worst error below mean error")
	}
	if worstPair[0] == "" || worstPair[1] == "" {
		t.Fatal("worst pair not identified")
	}
}

func TestCorrelationFidelityEmpty(t *testing.T) {
	res := &Result{}
	meanErr, _, worstErr := CorrelationFidelity(&Dataset{}, res)
	if meanErr != 0 || worstErr != 0 {
		t.Fatal("empty inputs should give zeros")
	}
}

func TestAnalyzeAffineInvariance(t *testing.T) {
	// Stage 1 z-normalizes every variable, so rescaling and shifting any
	// column must leave the whole analysis unchanged.
	ds := syntheticDataset(12, 0.15, 70)
	res1, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 71}})
	if err != nil {
		t.Fatal(err)
	}
	scaled := &Dataset{
		Observations: ds.Observations,
		Variables:    ds.Variables,
	}
	for _, row := range ds.X {
		nr := make([]float64, len(row))
		for j, v := range row {
			nr[j] = v*float64(3+j) + float64(10*j)
		}
		scaled.X = append(scaled.X, nr)
	}
	res2, err := AnalyzeContext(context.Background(), scaled, Options{MDS: mds.Options{Seed: 71}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Alienation-res2.Alienation) > 1e-9 {
		t.Fatalf("alienation changed under affine transform: %v vs %v",
			res1.Alienation, res2.Alienation)
	}
	for i := range res1.Points {
		if math.Abs(res1.Points[i].X-res2.Points[i].X) > 1e-6 ||
			math.Abs(res1.Points[i].Y-res2.Points[i].Y) > 1e-6 {
			t.Fatalf("point %s moved under affine transform", res1.Points[i].Name)
		}
	}
}
