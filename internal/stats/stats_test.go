package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
}

func TestEmptyInputsNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Median(nil)) || !math.IsNaN(Interval90(nil)) {
		t.Fatal("empty input should yield NaN")
	}
}

func TestQuantileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Median(xs) != 3 {
		t.Fatalf("median = %v", Median(xs))
	}
	if Quantile(xs, 0.25) != 2 {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	// Interpolation: quantile 0.1 of [1..5] = 1 + 0.4 = 1.4
	if !almost(Quantile(xs, 0.1), 1.4, 1e-12) {
		t.Fatalf("q10 = %v", Quantile(xs, 0.1))
	}
}

func TestQuantileSingle(t *testing.T) {
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("single element quantile")
	}
}

func TestQuantileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
	ys := []float64{9, 2, 7, 2, 0, 4, 11, 3, 8, 1, 6, 5, 10, 2, 4, 12, 0, 7, 3, 1, 9}
	orig := append([]float64(nil), ys...)
	MedianAndInterval(ys, 0.9)
	for i := range ys {
		if ys[i] != orig[i] {
			t.Fatalf("MedianAndInterval mutated its input at %d: %v", i, ys)
		}
	}
}

// sortedQuantile is the sort-based reference the selection must match:
// sort a copy as sort.Float64s does, then read the type-7 quantile.
func sortedQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	return quantileSorted(s, p)
}

// tiedSample draws n values with heavy ties from a pool of few values,
// arranged in one of several orders. Zeros are all +0: -0 and +0 tie
// under sort.Float64s, which leaves their order, and so the sign of a
// zero order statistic, to the input's arrangement.
func tiedSample(r *rng.Source, n, shape int) []float64 {
	pool := []float64{-7.5, -1, 0, 0.25, 1, 3, 3e9, 42}
	switch shape % 4 {
	case 1:
		pool = append(pool, math.Inf(1), math.Inf(-1))
	case 2:
		pool = append(pool, math.NaN())
	}
	distinct := 1 + r.Intn(len(pool))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = pool[r.Intn(distinct)]
	}
	switch shape % 3 {
	case 1:
		sort.Float64s(xs)
	case 2:
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	}
	return xs
}

// TestSelectionMatchesSort: the selection-based statistics return the
// bits a full sort returns, over random inputs with heavy ties, ±Inf and
// NaNs, in random, ascending and descending order.
func TestSelectionMatchesSort(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	r := rng.New(14)
	for _, n := range []int{1, 2, 3, 17, 2000, 2001} {
		for shape := 0; shape < 12; shape++ {
			xs := tiedSample(r, n, shape)
			for _, p := range []float64{0, 0.05, 0.5, 0.95, 1} {
				if got, want := Quantile(xs, p), sortedQuantile(xs, p); !same(got, want) {
					t.Fatalf("n=%d shape=%d: Quantile(%v) = %v, sort gives %v", n, shape, p, got, want)
				}
			}
			for _, q := range []float64{0, 0.05, 0.5, 0.9, 0.95, 1} {
				m, iv := MedianAndInterval(xs, q)
				wantIv := sortedQuantile(xs, 0.5+q/2) - sortedQuantile(xs, 0.5-q/2)
				if !same(m, sortedQuantile(xs, 0.5)) || !same(iv, wantIv) {
					t.Fatalf("n=%d shape=%d q=%v: MedianAndInterval = %v, %v; sort gives %v, %v",
						n, shape, q, m, iv, sortedQuantile(xs, 0.5), wantIv)
				}
			}
			if got, want := Interval90(xs), sortedQuantile(xs, 0.95)-sortedQuantile(xs, 0.05); !same(got, want) {
				t.Fatalf("n=%d shape=%d: Interval90 = %v, sort gives %v", n, shape, got, want)
			}
		}
	}
}

// TestSelectNthAnyBudget: selectNth places the k-th order statistic and
// partitions around it whether it selects to the end or exhausts its
// partition budget at once and falls back to sorting.
func TestSelectNthAnyBudget(t *testing.T) {
	r := rng.New(3)
	for _, budget := range []int{0, 1, 2, 64} {
		for _, n := range []int{1, 2, 3, 17, 200} {
			// Shapes without NaNs, which selectNth's callers remove.
			xs := tiedSample(r, n, []int{0, 1, 4, 5, 8, 9}[r.Intn(6)])
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			for _, k := range []int{0, n / 3, n / 2, n - 1} {
				a := append([]float64(nil), xs...)
				selectNth(a, k, budget)
				if math.Float64bits(a[k]) != math.Float64bits(want[k]) {
					t.Fatalf("budget %d n=%d k=%d: a[k] = %v, want %v", budget, n, k, a[k], want[k])
				}
				for i := range a {
					if i < k && a[k] < a[i] || i > k && a[i] < a[k] {
						t.Fatalf("budget %d n=%d k=%d: a[%d] = %v on the wrong side of %v", budget, n, k, i, a[i], a[k])
					}
				}
			}
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Norm() * 10
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.01 {
		q := Quantile(xs, math.Min(p, 1))
		if q < prev-1e-12 {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestInterval90(t *testing.T) {
	// Uniform 0..100 (101 points): p95 = 95, p5 = 5, interval = 90.
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	if !almost(Interval90(xs), 90, 1e-9) {
		t.Fatalf("interval90 = %v", Interval90(xs))
	}
	if _, iv := MedianAndInterval(xs, 0.5); !almost(iv, 50, 1e-9) {
		t.Fatalf("interval50 = %v", iv)
	}
}

func TestMedianAndInterval(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	m, iv := MedianAndInterval(xs, 0.9)
	if !almost(m, 50, 1e-9) || !almost(iv, 90, 1e-9) {
		t.Fatalf("m=%v iv=%v", m, iv)
	}
}

func TestNormalizeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()*5 + 3
		}
		z := Normalize(xs)
		return almost(Mean(z), 0, 1e-9) && almost(StdDev(z), 1, 1e-9)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeConstant(t *testing.T) {
	z := Normalize([]float64{4, 4, 4})
	for _, v := range z {
		if v != 0 {
			t.Fatal("constant input should normalize to zeros")
		}
	}
}

// TestNormalizeConstantRoundingMean is the regression test for a
// constant column whose mean does not round back to its value: three
// 0.1s average to 0.10000000000000002, and dividing the leftover by the
// resulting ~1e-17 standard deviation used to score every entry −1.
func TestNormalizeConstantRoundingMean(t *testing.T) {
	for _, xs := range [][]float64{{0.1, 0.1, 0.1}, {-3.3, -3.3, -3.3}, {4, 4}} {
		for i, v := range Normalize(xs) {
			if v != 0 {
				t.Fatalf("Normalize(%v)[%d] = %v, want 0", xs, i, v)
			}
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if !almost(Pearson(xs, ys), 1, 1e-12) {
		t.Fatalf("r = %v", Pearson(xs, ys))
	}
	neg := []float64{8, 6, 4, 2}
	if !almost(Pearson(xs, neg), -1, 1e-12) {
		t.Fatalf("r = %v", Pearson(xs, neg))
	}
}

func TestPearsonInvariance(t *testing.T) {
	// Correlation is invariant under positive affine transforms.
	r := rng.New(2)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = r.Norm()
		ys[i] = xs[i] + 0.5*r.Norm()
	}
	r1 := Pearson(xs, ys)
	xs2 := make([]float64, len(xs))
	for i := range xs {
		xs2[i] = 3*xs[i] + 7
	}
	if !almost(r1, Pearson(xs2, ys), 1e-12) {
		t.Fatal("Pearson not affine invariant")
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance correlation should be 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if !almost(Spearman(xs, ys), 1, 1e-12) {
		t.Fatalf("spearman = %v", Spearman(xs, ys))
	}
}

func TestOLSKnownLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	slope, intercept, r := OLS(xs, ys)
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) || !almost(r, 1, 1e-12) {
		t.Fatalf("slope=%v intercept=%v r=%v", slope, intercept, r)
	}
}

func TestOLSNoise(t *testing.T) {
	r := rng.New(3)
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / 100
		ys[i] = 0.7 - 0.3*xs[i] + 0.05*r.Norm()
	}
	slope, intercept, _ := OLS(xs, ys)
	if !almost(slope, -0.3, 0.01) || !almost(intercept, 0.7, 0.05) {
		t.Fatalf("slope=%v intercept=%v", slope, intercept)
	}
}

func TestPAVAAlreadyMonotone(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	got := PAVA(ys, nil)
	for i := range ys {
		if got[i] != ys[i] {
			t.Fatalf("PAVA changed monotone input: %v", got)
		}
	}
}

func TestPAVAKnownCase(t *testing.T) {
	got := PAVA([]float64{1, 3, 2, 4}, nil)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("PAVA = %v, want %v", got, want)
		}
	}
}

func TestPAVADecreasingInput(t *testing.T) {
	got := PAVA([]float64{4, 3, 2, 1}, nil)
	for _, v := range got {
		if !almost(v, 2.5, 1e-12) {
			t.Fatalf("PAVA of decreasing input = %v, want all 2.5", got)
		}
	}
}

func TestPAVAProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = r.Norm()
		}
		fit := PAVA(ys, nil)
		if len(fit) != n {
			return false
		}
		// Output must be non-decreasing.
		for i := 1; i < n; i++ {
			if fit[i] < fit[i-1]-1e-12 {
				return false
			}
		}
		// Weighted mean must be preserved (projection property).
		return almost(Mean(fit), Mean(ys), 1e-9)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPAVAWeighted(t *testing.T) {
	// Heavier weight on the first element pulls the pooled block value
	// toward it.
	got := PAVA([]float64{3, 1}, []float64{3, 1})
	if !almost(got[0], 2.5, 1e-12) || !almost(got[1], 2.5, 1e-12) {
		t.Fatalf("weighted PAVA = %v", got)
	}
}

func TestMultipleOLSExact(t *testing.T) {
	// y = 1 + 2a - 3b exactly.
	x := mat.FromRows([][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}})
	y := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		y[i] = 1 + 2*x.At(i, 0) - 3*x.At(i, 1)
	}
	coef, r, err := MultipleOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(coef[0], 1, 1e-9) || !almost(coef[1], 2, 1e-9) || !almost(coef[2], -3, 1e-9) {
		t.Fatalf("coef = %v", coef)
	}
	if !almost(r, 1, 1e-9) {
		t.Fatalf("R = %v", r)
	}
}

func TestMultipleOLSDimensionError(t *testing.T) {
	x := mat.New(3, 2)
	if _, _, err := MultipleOLS(x, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := rng.New(4)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.95)
	}
}

func BenchmarkPAVA(b *testing.B) {
	r := rng.New(5)
	ys := make([]float64, 1000)
	for i := range ys {
		ys[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PAVA(ys, nil)
	}
}
