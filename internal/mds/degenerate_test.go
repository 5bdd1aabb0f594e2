package mds

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// testCityBlockDissim builds a city-block dissimilarity matrix over
// random points: non-Euclidean on purpose, so the non-metric iterations
// and the restarts have real work to do.
func testCityBlockDissim(t testing.TB, n, dims int) *mat.Matrix {
	t.Helper()
	pts := randomPoints(rng.New(uint64(n*31+dims)), n, dims)
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for c := range pts[i] {
				s += math.Abs(pts[i][c] - pts[j][c])
			}
			d.Set(i, j, s)
		}
	}
	return d
}

// constantMatrix builds an n×n dissimilarity matrix with every
// off-diagonal entry equal to v.
func constantMatrix(n int, v float64) *mat.Matrix {
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Set(i, j, v)
			}
		}
	}
	return d
}

// Regression test: a constant dissimilarity matrix carries no rank
// order, so any configuration scores a "perfect" Alienation of 0 (the
// equation-3 denominator is zero). The solver used to return such a
// meaningless perfect fit — under Monotone it would even collapse every
// point onto the origin. It must refuse with a typed error instead, for
// every disparity method.
func TestSSAConstantDissimilaritiesRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method DisparityMethod
	}{
		{"rankimage", RankImage},
		{"monotone", Monotone},
		{"metric", Metric},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := constantMatrix(6, 2.5)
			_, err := SSAContext(context.Background(), d, Options{Seed: 1, Method: tc.method})
			if err == nil {
				t.Fatal("constant dissimilarities accepted")
			}
			var deg *DegenerateInputError
			if !errors.As(err, &deg) {
				t.Fatalf("err = %v (%T), want *DegenerateInputError", err, err)
			}
			if deg.Reason == "" {
				t.Fatal("empty degeneracy reason")
			}
		})
	}
}

// An all-zero matrix is the extreme constant case (it also used to slip
// through as a perfect fit).
func TestSSAZeroDissimilaritiesRejected(t *testing.T) {
	_, err := SSAContext(context.Background(), mat.New(5, 5), Options{Seed: 1})
	var deg *DegenerateInputError
	if !errors.As(err, &deg) {
		t.Fatalf("err = %v, want *DegenerateInputError", err)
	}
}

// A single unequal pair restores a rank order, so the solver must
// accept the matrix again — the degeneracy check is exact, not a
// variance threshold.
func TestSSANearConstantAccepted(t *testing.T) {
	d := constantMatrix(6, 2.5)
	d.Set(0, 1, 2.6)
	d.Set(1, 0, 2.6)
	res, err := SSAContext(context.Background(), d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config == nil || res.Config.Rows != 6 {
		t.Fatalf("bad config: %+v", res)
	}
}

// Regression test: every comparison with NaN is false, so a NaN or ±Inf
// dissimilarity used to pass the sign, symmetry and diagonal checks
// and reach the solver. It must be refused with an error naming the
// cell, whether the bad value sits in both triangles or only one.
func TestCheckDissimRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, both := range []bool{true, false} {
			d := constantMatrix(4, 1)
			d.Set(1, 0, 2)
			d.Set(0, 1, 2)
			d.Set(2, 1, v)
			cell := "(2,1)"
			if both {
				d.Set(1, 2, v)
				cell = "(1,2)"
			}
			err := checkDissim(d)
			if err == nil {
				t.Fatalf("value %v (both triangles %v) accepted", v, both)
			}
			if !strings.Contains(err.Error(), cell) || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("value %v (both triangles %v): error %q does not name non-finite cell %s", v, both, err, cell)
			}
			if _, err := SSAContext(context.Background(), d, Options{Seed: 1}); err == nil {
				t.Fatalf("SSA accepted value %v (both triangles %v)", v, both)
			}
		}
	}
}

// Regression test: the multi-start winner is chosen by the explicit
// (alienation, start index) total order. A tie on alienation must break
// toward the earlier start — that is what makes the parallel reduction
// reproduce the serial scan exactly.
func TestBetterTotalOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b Result
		want bool
	}{
		{"lower alienation wins", Result{Alienation: 0.1, Start: 5}, Result{Alienation: 0.2, Start: 0}, true},
		{"higher alienation loses", Result{Alienation: 0.2, Start: 0}, Result{Alienation: 0.1, Start: 5}, false},
		{"tie breaks to earlier start", Result{Alienation: 0.1, Start: 1}, Result{Alienation: 0.1, Start: 3}, true},
		{"tie breaks against later start", Result{Alienation: 0.1, Start: 3}, Result{Alienation: 0.1, Start: 1}, false},
		{"identical is not better", Result{Alienation: 0.1, Start: 2}, Result{Alienation: 0.1, Start: 2}, false},
	} {
		if got := better(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: better(%+v, %+v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// The winning start index is reported and deterministic across runs.
func TestSSAReportsWinningStart(t *testing.T) {
	d := testCityBlockDissim(t, 10, 3)
	opts := Options{Seed: 11, Restarts: 5}
	res, err := SSAContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Start < 0 || res.Start > opts.Restarts {
		t.Fatalf("Start = %d, want 0..%d", res.Start, opts.Restarts)
	}
	res2, err := SSAContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Start != res.Start || res2.Alienation != res.Alienation {
		t.Fatalf("re-run changed winner: (%d, %v) vs (%d, %v)",
			res.Start, res.Alienation, res2.Start, res2.Alienation)
	}
	if math.IsNaN(res.Alienation) {
		t.Fatal("NaN alienation")
	}
}
