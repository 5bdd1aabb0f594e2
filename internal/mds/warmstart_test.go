package mds

import (
	"context"
	"math"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// planarDissim builds a well-conditioned dissimilarity matrix by
// measuring city-block distances between random planar points, so a 2-D
// fit exists and the solver has something meaningful to descend on.
func planarDissim(n int, seed uint64) *mat.Matrix {
	r := rng.New(seed)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Norm() * 3, r.Norm()}
	}
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Abs(pts[i][0]-pts[j][0]) + math.Abs(pts[i][1]-pts[j][1])
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

func TestWarmStartConvergesFaster(t *testing.T) {
	d := planarDissim(12, 3)

	var coldIters int
	cold, err := SSAContext(context.Background(), d, Options{Seed: 5, Trace: func(start, iter int, stress float64) { coldIters++ }})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-start from the cold solution on the same data: a single
	// descent that must spend far fewer total iterations than the
	// multi-start (one start instead of five) and never worsen the fit
	// it was seeded with. Positions may still slide along near-flat
	// stress directions — the rank-image targets re-sort every
	// iteration — which is exactly why drift detection and the
	// equivalence tests compare Procrustes-aligned maps under a
	// tolerance instead of demanding bitwise identity.
	var warmIters int
	warm, err := SSAContext(context.Background(), d, Options{
		Seed: 5, Restarts: -1, InitialConfig: cold.Config,
		Trace: func(start, iter int, stress float64) { warmIters++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if warmIters >= coldIters {
		t.Fatalf("warm start used %d iterations, cold multi-start %d", warmIters, coldIters)
	}
	if warm.Stress > cold.Stress+1e-9 {
		t.Fatalf("warm restart worsened stress: %g from %g", warm.Stress, cold.Stress)
	}
	// The neighborhood check must be gauge-free: the warm solve keeps
	// the dissimilarity scale its seed was normalized to, the cold one
	// the scale of its classical-scaling seed, and Align is
	// rotation-only. Bring both to the dissimilarity gauge first.
	wc, cc := warm.Config.Clone(), cold.Config.Clone()
	if !ScaleToDissim(wc, d) || !ScaleToDissim(cc, d) {
		t.Fatal("ScaleToDissim found a collapsed configuration")
	}
	if _, rmsd, err := Align(cc, wc); err != nil || rmsd > 0.5*RMSRadius(cc) {
		t.Fatalf("warm restart left the solution's neighborhood: rmsd %g, err %v", rmsd, err)
	}
}

func TestWarmStartShapeMismatch(t *testing.T) {
	d := planarDissim(6, 1)
	if _, err := SSAContext(context.Background(), d, Options{InitialConfig: mat.New(5, 2)}); err == nil {
		t.Fatal("5-row initial config accepted for a 6-point solve")
	}
	if _, err := SSAContext(context.Background(), d, Options{InitialConfig: mat.New(6, 3)}); err == nil {
		t.Fatal("3-column initial config accepted for a 2-D solve")
	}
}

func TestWarmStartDoesNotMutateInitialConfig(t *testing.T) {
	d := planarDissim(8, 9)
	init := mat.New(8, 2)
	r := rng.New(2)
	for i := range init.Data {
		init.Data[i] = r.Norm()
	}
	before := append([]float64(nil), init.Data...)
	if _, err := SSAContext(context.Background(), d, Options{Restarts: -1, InitialConfig: init}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if init.Data[i] != before[i] {
			t.Fatalf("InitialConfig mutated at %d", i)
		}
	}
}

func TestAlignRecoversRigidTransform(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 3 + int(r.Uint64()%10)
		ref := mat.New(n, 2)
		for i := range ref.Data {
			ref.Data[i] = r.Norm() * 2
		}
		theta := r.Float64() * 2 * math.Pi
		tx, ty := r.Norm(), r.Norm()
		reflect := trial%2 == 1
		moved := mat.New(n, 2)
		for i := 0; i < n; i++ {
			x, y := ref.At(i, 0), ref.At(i, 1)
			if reflect {
				x = -x
			}
			moved.Set(i, 0, x*math.Cos(theta)-y*math.Sin(theta)+tx)
			moved.Set(i, 1, x*math.Sin(theta)+y*math.Cos(theta)+ty)
		}
		_, rmsd, err := Align(ref, moved)
		if err != nil {
			t.Fatal(err)
		}
		if scale := RMSRadius(ref); rmsd > 1e-9*math.Max(scale, 1) {
			t.Fatalf("trial %d (reflect=%v): rigid transform not recovered, rmsd %g", trial, reflect, rmsd)
		}
	}
}

func TestAlignReportsResidual(t *testing.T) {
	// Two genuinely different shapes: a line and a right angle. No
	// rigid transform maps one onto the other, so the RMSD must stay
	// clearly positive.
	ref := mat.New(3, 2)
	ref.Set(0, 0, -1)
	ref.Set(2, 0, 1)
	bent := mat.New(3, 2)
	bent.Set(0, 0, -1)
	bent.Set(2, 1, 1)
	_, rmsd, err := Align(ref, bent)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd < 0.1 {
		t.Fatalf("distinct shapes aligned to rmsd %g", rmsd)
	}
}

func TestAlignShapeErrors(t *testing.T) {
	if _, _, err := Align(mat.New(3, 2), mat.New(4, 2)); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if _, _, err := Align(mat.New(3, 3), mat.New(3, 3)); err == nil {
		t.Fatal("3-D configurations accepted")
	}
}
