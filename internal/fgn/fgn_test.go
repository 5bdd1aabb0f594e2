package fgn

import (
	"math"
	"testing"

	"coplot/internal/dist"
	"coplot/internal/rng"
	"coplot/internal/series"
	"coplot/internal/stats"
)

func TestAutocovariance(t *testing.T) {
	if Autocovariance(0.7, 0) != 1 {
		t.Fatal("γ(0) must be 1")
	}
	// H = 0.5 is white noise: zero covariance at all positive lags.
	for k := 1; k < 10; k++ {
		if g := Autocovariance(0.5, k); math.Abs(g) > 1e-12 {
			t.Fatalf("white noise γ(%d) = %v", k, g)
		}
	}
	// Persistent noise (H > 0.5) has positive covariance decaying in k.
	prev := math.Inf(1)
	for k := 1; k < 20; k++ {
		g := Autocovariance(0.8, k)
		if g <= 0 {
			t.Fatalf("persistent γ(%d) = %v, want > 0", k, g)
		}
		if g > prev {
			t.Fatalf("γ not decreasing at lag %d", k)
		}
		prev = g
	}
	// Anti-persistent (H < 0.5) has negative lag-1 covariance.
	if Autocovariance(0.3, 1) >= 0 {
		t.Fatal("anti-persistent γ(1) should be negative")
	}
}

func TestValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := Hosking(r, 1.5, 10); err == nil {
		t.Fatal("H=1.5 accepted")
	}
	if _, err := Hosking(r, 0.7, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := DaviesHarte(r, 0, 10); err == nil {
		t.Fatal("H=0 accepted")
	}
	if _, err := DaviesHarte(r, 0.7, -1); err == nil {
		t.Fatal("n=-1 accepted")
	}
}

func TestHoskingACFMatchesTheory(t *testing.T) {
	r := rng.New(2)
	h := 0.8
	x, err := Hosking(r, h, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5} {
		want := Autocovariance(h, k)
		got := series.ACF(x, k)[k]
		if math.Abs(got-want) > 0.08 {
			t.Fatalf("lag-%d ACF = %v, want %v", k, got, want)
		}
	}
}

func TestDaviesHarteACFMatchesTheory(t *testing.T) {
	r := rng.New(3)
	for _, h := range []float64{0.6, 0.8, 0.9} {
		x, err := DaviesHarte(r, h, 16384)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5} {
			want := Autocovariance(h, k)
			got := series.ACF(x, k)[k]
			// Sample ACF of strongly LRD series is biased downward by
			// O(n^{2H-2}); allow a wider band at high H.
			tol := 0.05 + 0.3*math.Max(0, h-0.75)
			if math.Abs(got-want) > tol {
				t.Fatalf("H=%v lag-%d ACF = %v, want %v", h, k, got, want)
			}
		}
	}
}

func TestDaviesHarteUnitVariance(t *testing.T) {
	r := rng.New(4)
	x, err := DaviesHarte(r, 0.75, 32768)
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(x); math.Abs(m) > 0.15 {
		t.Fatalf("mean = %v, want ~0", m)
	}
	if v := stats.Variance(x); math.Abs(v-1) > 0.15 {
		t.Fatalf("variance = %v, want ~1", v)
	}
}

func TestDaviesHarteWhiteNoiseCase(t *testing.T) {
	// H=0.5 must be plain white noise: near-zero lag-1 autocorrelation.
	r := rng.New(5)
	x, err := DaviesHarte(r, 0.5, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if a := series.ACF(x, 1)[1]; math.Abs(a) > 0.03 {
		t.Fatalf("H=0.5 lag-1 ACF = %v, want ~0", a)
	}
}

func TestHoskingDaviesHarteAgree(t *testing.T) {
	// The two generators must produce statistically indistinguishable
	// processes: compare variance of aggregated series (the self-similar
	// signature) at block size 16.
	h := 0.85
	agg := func(x []float64, m int) []float64 {
		out := make([]float64, len(x)/m)
		for i := range out {
			s := 0.0
			for j := 0; j < m; j++ {
				s += x[i*m+j]
			}
			out[i] = s / float64(m)
		}
		return out
	}
	xh, err := Hosking(rng.New(6), h, 4096)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := DaviesHarte(rng.New(7), h, 4096)
	if err != nil {
		t.Fatal(err)
	}
	vh := stats.Variance(agg(xh, 16))
	vd := stats.Variance(agg(xd, 16))
	want := math.Pow(16, 2*h-2) // Var(X^(m)) = m^{2H-2} for unit fGn
	if math.Abs(vh-want) > 0.5*want {
		t.Fatalf("Hosking aggregated variance %v, want ~%v", vh, want)
	}
	if math.Abs(vd-want) > 0.5*want {
		t.Fatalf("DaviesHarte aggregated variance %v, want ~%v", vd, want)
	}
}

func TestFBMSelfSimilarScaling(t *testing.T) {
	// Var(B_n) ~ n^{2H} for fBm; check the growth exponent roughly.
	h := 0.8
	const reps = 200
	var v1, v2 []float64
	for rep := 0; rep < reps; rep++ {
		x, err := DaviesHarte(rng.New(uint64(100+rep)), h, 1024)
		if err != nil {
			t.Fatal(err)
		}
		// Integrate the fGn into fBm: B[i] = x[0] + ... + x[i].
		b := 0.0
		for i, v := range x {
			b += v
			switch i {
			case 255:
				v1 = append(v1, b)
			case 1023:
				v2 = append(v2, b)
			}
		}
	}
	ratio := stats.Variance(v2) / stats.Variance(v1)
	want := math.Pow(4, 2*h) // (1024/256)^{2H} ≈ 9.19
	if math.Abs(math.Log(ratio)-math.Log(want)) > 0.5 {
		t.Fatalf("fBm variance ratio = %v, want ~%v", ratio, want)
	}
}

func TestCopulaTransformMarginal(t *testing.T) {
	r := rng.New(8)
	x, err := DaviesHarte(r, 0.8, 20000)
	if err != nil {
		t.Fatal(err)
	}
	target := dist.LogNormalFromMedianInterval(100, 5000)
	y := CopulaTransform(Standardize(x), target)
	med, iv := stats.MedianAndInterval(y, 0.9)
	if math.Abs(med-100)/100 > 0.08 {
		t.Fatalf("copula median = %v, want ~100", med)
	}
	if math.Abs(iv-5000)/5000 > 0.15 {
		t.Fatalf("copula interval = %v, want ~5000", iv)
	}
	for _, v := range y {
		if v <= 0 {
			t.Fatal("lognormal marginal produced non-positive value")
		}
	}
}

func TestCopulaTransformPreservesOrder(t *testing.T) {
	// The copula transform is monotone, so ranks are preserved exactly.
	r := rng.New(9)
	x, err := DaviesHarte(r, 0.7, 500)
	if err != nil {
		t.Fatal(err)
	}
	y := CopulaTransform(x, dist.Exponential{Lambda: 0.01})
	if s := stats.Spearman(x, y); math.Abs(s-1) > 1e-9 {
		t.Fatalf("Spearman(x, copula(x)) = %v, want 1", s)
	}
}

func BenchmarkDaviesHarte65536(b *testing.B) {
	r := rng.New(10)
	for i := 0; i < b.N; i++ {
		if _, err := DaviesHarte(r, 0.8, 65536); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHosking2048(b *testing.B) {
	r := rng.New(11)
	for i := 0; i < b.N; i++ {
		if _, err := Hosking(r, 0.8, 2048); err != nil {
			b.Fatal(err)
		}
	}
}
