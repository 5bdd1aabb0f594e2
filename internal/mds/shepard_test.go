package mds

import (
	"context"
	"math"
	"testing"

	"coplot/internal/rng"
)

func TestShepardPerfectFit(t *testing.T) {
	r := rng.New(1)
	pts := randomPoints(r, 10, 2)
	d := euclideanDistances(pts)
	res, err := SSAContext(context.Background(), d, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := Shepard(d, res.Config)
	if len(sh) != 45 {
		t.Fatalf("pairs = %d, want 45", len(sh))
	}
	// Exact recovery: distances equal dissimilarities up to scale, so
	// rank correlation is 1.
	if r := ShepardCorrelation(sh); r < 0.999 {
		t.Fatalf("Shepard correlation = %v", r)
	}
	// Points come back sorted by dissimilarity.
	for i := 1; i < len(sh); i++ {
		if sh[i].Dissimilarity < sh[i-1].Dissimilarity {
			t.Fatal("Shepard points not sorted")
		}
	}
}

func TestShepardDetectsBadConfig(t *testing.T) {
	r := rng.New(3)
	pts := randomPoints(r, 12, 2)
	d := euclideanDistances(pts)
	res, err := SSAContext(context.Background(), d, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	good := ShepardCorrelation(Shepard(d, res.Config))
	// A random configuration must fit much worse.
	bad := res.Config.Clone()
	for i := range bad.Data {
		bad.Data[i] = r.Norm()
	}
	badCorr := ShepardCorrelation(Shepard(d, bad))
	if badCorr >= good-0.2 {
		t.Fatalf("random config Shepard %v not clearly below fitted %v", badCorr, good)
	}
}

func TestShepardCorrelationDegenerate(t *testing.T) {
	if !math.IsNaN(ShepardCorrelation(nil)) {
		t.Fatal("empty diagram should give NaN")
	}
}
