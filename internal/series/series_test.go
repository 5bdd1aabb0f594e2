package series

import (
	"math"
	"testing"
	"testing/quick"

	"coplot/internal/rng"
	"coplot/internal/stats"
)

func TestAggregate(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(x, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Aggregate = %v, want %v", got, want)
		}
	}
}

func TestAggregateBlockOne(t *testing.T) {
	x := []float64{3, 1, 4}
	got := Aggregate(x, 1)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("m=1 aggregation must be identity")
		}
	}
}

func TestAggregatePanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Aggregate([]float64{1}, 0)
}

func TestAggregateMeanPreserved(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := 1 + r.Intn(8)
		n := m * (2 + r.Intn(40))
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Norm()
		}
		// When blocks tile exactly, the grand mean is preserved.
		return math.Abs(stats.Mean(Aggregate(x, m))-stats.Mean(x)) < 1e-9
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestACFBasics(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = r.Norm()
	}
	acf := ACF(x, 5)
	if acf[0] != 1 {
		t.Fatalf("r(0) = %v", acf[0])
	}
	for k := 1; k <= 5; k++ {
		if math.Abs(acf[k]) > 0.05 {
			t.Fatalf("white noise r(%d) = %v", k, acf[k])
		}
	}
}

func TestACFAR1(t *testing.T) {
	// AR(1) with coefficient 0.8: r(k) ≈ 0.8^k.
	r := rng.New(2)
	n := 50000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.8*x[i-1] + r.Norm()
	}
	acf := ACF(x, 3)
	for k := 1; k <= 3; k++ {
		want := math.Pow(0.8, float64(k))
		if math.Abs(acf[k]-want) > 0.03 {
			t.Fatalf("AR1 r(%d) = %v, want %v", k, acf[k], want)
		}
	}
}

func TestACFConstantSeries(t *testing.T) {
	acf := ACF([]float64{2, 2, 2, 2}, 2)
	for _, v := range acf {
		if v != 0 {
			t.Fatal("constant series ACF should be zeros (degenerate)")
		}
	}
}

func TestACFMaxLagClamped(t *testing.T) {
	acf := ACF([]float64{1, 2, 3}, 10)
	if len(acf) != 3 {
		t.Fatalf("len = %d, want 3", len(acf))
	}
}

func TestBlockSizes(t *testing.T) {
	sizes := BlockSizes(4, 100, 2)
	want := []int{4, 8, 16, 32, 64}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestBlockSizesNoDuplicates(t *testing.T) {
	sizes := BlockSizes(1, 1000, 1.3)
	seen := map[int]bool{}
	for _, s := range sizes {
		if seen[s] {
			t.Fatalf("duplicate block size %d", s)
		}
		seen[s] = true
	}
}
