package mat

import (
	"math"
	"testing"
	"testing/quick"

	"coplot/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// col returns a copy of column j of m.
func col(m *Matrix, j int) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 || m.At(0, 0) != 1 {
		t.Fatal("element access wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almost(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	r := rng.New(2)
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(dummy uint8) bool {
		n := 3 + int(dummy%5)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		// Diagonal dominance keeps the random system well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Norm()
		}
		b := a.MulVec(xTrue)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almost(x[i], xTrue[i], 1e-7) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if !almost(vals[i], want[i], 1e-10) {
			t.Fatalf("eigenvalues = %v", vals)
		}
	}
	if vecs.Rows != 3 || vecs.Cols != 3 {
		t.Fatal("bad eigenvector shape")
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(vals[0], 3, 1e-10) || !almost(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// Eigenvector for λ=3 is (1,1)/sqrt2 up to sign.
	v0 := col(vecs, 0)
	if !almost(math.Abs(v0[0]), 1/math.Sqrt2, 1e-9) || !almost(math.Abs(v0[1]), 1/math.Sqrt2, 1e-9) {
		t.Fatalf("v0 = %v", v0)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	r := rng.New(3)
	n := 8
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check A v_k = λ_k v_k for each eigenpair.
	for k := 0; k < n; k++ {
		v := col(vecs, k)
		av := a.MulVec(v)
		for i := 0; i < n; i++ {
			if !almost(av[i], vals[k]*v[i], 1e-7) {
				t.Fatalf("eigenpair %d violates A v = λ v (%v vs %v)", k, av[i], vals[k]*v[i])
			}
		}
	}
	// Eigenvalues must be sorted descending.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	r := rng.New(4)
	n := 6
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	_, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += vecs.At(i, p) * vecs.At(i, q)
			}
			want := 0.0
			if p == q {
				want = 1
			}
			if !almost(dot, want, 1e-8) {
				t.Fatalf("vectors %d,%d dot = %v, want %v", p, q, dot, want)
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestDoubleCenterRowColSumsZero(t *testing.T) {
	r := rng.New(5)
	n := 7
	d2 := New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Abs(r.Norm()) + 0.1
			d2.Set(i, j, v*v)
			d2.Set(j, i, v*v)
		}
	}
	b := DoubleCenter(d2)
	for i := 0; i < n; i++ {
		rowSum, colSum := 0.0, 0.0
		for j := 0; j < n; j++ {
			rowSum += b.At(i, j)
			colSum += b.At(j, i)
		}
		if !almost(rowSum, 0, 1e-9) || !almost(colSum, 0, 1e-9) {
			t.Fatalf("double-centered sums not zero: row %v col %v", rowSum, colSum)
		}
	}
}

func TestDoubleCenterRecoversGram(t *testing.T) {
	// Points on a line: distances are exact, so classical scaling must
	// recover the centered Gram matrix exactly.
	pts := []float64{0, 1, 3, 6}
	n := len(pts)
	mean := 0.0
	for _, p := range pts {
		mean += p
	}
	mean /= float64(n)
	d2 := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := pts[i] - pts[j]
			d2.Set(i, j, d*d)
		}
	}
	b := DoubleCenter(d2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := (pts[i] - mean) * (pts[j] - mean)
			if !almost(b.At(i, j), want, 1e-9) {
				t.Fatalf("Gram mismatch at %d,%d: %v vs %v", i, j, b.At(i, j), want)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !FromRows([][]float64{{1, 2}, {2, 1}}).IsSymmetric(0) {
		t.Fatal("symmetric matrix not recognized")
	}
	if FromRows([][]float64{{1, 2}, {3, 1}}).IsSymmetric(1e-9) {
		t.Fatal("asymmetric matrix passed")
	}
	if FromRows([][]float64{{1, 2, 3}}).IsSymmetric(1e-9) {
		t.Fatal("non-square matrix passed")
	}
}

func BenchmarkEigenSym20(b *testing.B) {
	r := rng.New(6)
	n := 20
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}
