package mds

import (
	"context"
	"fmt"
	"math"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/par"
)

func TestSelectLandmarks(t *testing.T) {
	d := planarDissim(40, 11)
	idx := SelectLandmarks(d, 12)
	if len(idx) != 12 {
		t.Fatalf("got %d landmarks, want 12", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 40 {
			t.Fatalf("landmark index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate landmark %d", i)
		}
		seen[i] = true
	}
	// Deterministic: the same matrix always yields the same sample.
	idx2 := SelectLandmarks(d, 12)
	for k := range idx {
		if idx[k] != idx2[k] {
			t.Fatalf("selection not deterministic: %v vs %v", idx, idx2)
		}
	}
	// k ≥ n returns every index.
	all := SelectLandmarks(d, 100)
	if len(all) != 40 {
		t.Fatalf("k>n returned %d indices, want 40", len(all))
	}
}

// TestLandmarkEquivalence is the tentpole's accuracy gate: on
// structured data the landmark solve must land in the same map as the
// exact full solve — relative Procrustes RMSD ≤ 0.15 after bringing
// both to the dissimilarity gauge — with alienation within 5% (or 0.01
// absolute, for near-perfect fits where 5% of Θ is below noise).
func TestLandmarkEquivalence(t *testing.T) {
	sizes := []int{100}
	if !testing.Short() {
		sizes = append(sizes, 500, 1000)
	}
	budget := par.NewBudget(0)
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			d := planarDissim(n, uint64(n))
			full, err := SSAContext(context.Background(), d, Options{Seed: 3, Par: budget})
			if err != nil {
				t.Fatal(err)
			}
			land, err := SSAContext(context.Background(), d, Options{Seed: 3, Par: budget, Landmarks: 50})
			if err != nil {
				t.Fatal(err)
			}
			if len(land.Landmarks) != 50 {
				t.Fatalf("landmark solve reported %d landmarks, want 50", len(land.Landmarks))
			}
			if full.Landmarks != nil {
				t.Fatalf("full solve reported landmarks: %v", full.Landmarks)
			}

			fc, lc := full.Config.Clone(), land.Config.Clone()
			ScaleToDissim(fc, d)
			ScaleToDissim(lc, d)
			_, rmsd, err := Align(fc, lc)
			if err != nil {
				t.Fatal(err)
			}
			scale := RMSRadius(fc)
			if rel := rmsd / scale; rel > 0.15 {
				t.Errorf("relative Procrustes %0.3f > 0.15", rel)
			}
			tol := 0.05 * full.Alienation
			if tol < 0.01 {
				tol = 0.01
			}
			if diff := math.Abs(land.Alienation - full.Alienation); diff > tol {
				t.Errorf("alienation %0.4f vs full %0.4f (diff %0.4f > %0.4f)",
					land.Alienation, full.Alienation, diff, tol)
			}
		})
	}
}

// TestLandmarkSetPinned: a pinned LandmarkSet must be used verbatim and
// echoed back — the streaming layer's frame-stability contract.
func TestLandmarkSetPinned(t *testing.T) {
	d := planarDissim(80, 5)
	set := []int{0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77}
	res, err := SSAContext(context.Background(), d, Options{Seed: 1, Landmarks: 1, LandmarkSet: set})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Landmarks) != len(set) {
		t.Fatalf("got %d landmarks, want %d", len(res.Landmarks), len(set))
	}
	for k := range set {
		if res.Landmarks[k] != set[k] {
			t.Fatalf("landmark set not pinned: %v vs %v", res.Landmarks, set)
		}
	}

	for _, bad := range [][]int{{1, 2}, {0, 1, 80}, {0, 1, 1}} {
		if _, err := SSAContext(context.Background(), d, Options{Seed: 1, Landmarks: 1, LandmarkSet: bad}); err == nil {
			t.Errorf("invalid landmark set %v accepted", bad)
		}
	}
}

// TestLandmarkSmallMatrixFallsBackToFull: when the matrix is no larger
// than the landmark sample the solver must produce the exact full-solve
// result, so enabling -landmarks globally never changes small analyses.
func TestLandmarkSmallMatrixFallsBackToFull(t *testing.T) {
	d := planarDissim(15, 9)
	full, err := SSAContext(context.Background(), d, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	land, err := SSAContext(context.Background(), d, Options{Seed: 3, Landmarks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if land.Landmarks != nil {
		t.Fatalf("small matrix still took the landmark path: %v", land.Landmarks)
	}
	for k := range full.Config.Data {
		if full.Config.Data[k] != land.Config.Data[k] {
			t.Fatalf("config differs at %d: %v vs %v", k, full.Config.Data[k], land.Config.Data[k])
		}
	}
	if full.Alienation != land.Alienation {
		t.Fatalf("alienation differs: %v vs %v", full.Alienation, land.Alienation)
	}
}

// TestLandmarkDegenerateSampleFallsBack: a degenerate landmark
// subproblem (here: a block of mutually coincident observations that
// maxmin sampling walks into) must fall back to the exact solve, not
// fail the whole analysis.
func TestLandmarkDegenerateSampleFallsBack(t *testing.T) {
	// Two clusters of coincident points: every cross-cluster
	// dissimilarity is 1, every within-cluster one is 0 — any landmark
	// sample of this matrix is constant or two-valued; with k up to n−1
	// the sampled submatrix can degenerate while the full matrix is fine.
	n := 30
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (i < n/2) != (j < n/2) {
				d.Set(i, j, 1)
			}
		}
	}
	res, err := SSAContext(context.Background(), d, Options{Seed: 2, Landmarks: 10, LandmarkSet: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatalf("degenerate landmark sample did not fall back: %v", err)
	}
	if res.Landmarks != nil {
		t.Fatalf("fallback solve still reports landmarks: %v", res.Landmarks)
	}
}
