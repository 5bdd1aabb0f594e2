package dist

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"coplot/internal/rng"
	"coplot/internal/stats"
)

func sample(s Sampler, r *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Sample(r)
	}
	return xs
}

func TestUniformMoments(t *testing.T) {
	r := rng.New(1)
	xs := sample(Uniform{Lo: 2, Hi: 6}, r, 100000)
	if m := stats.Mean(xs); math.Abs(m-4) > 0.02 {
		t.Fatalf("uniform mean = %v", m)
	}
	if slices.Min(xs) < 2 || slices.Max(xs) >= 6 {
		t.Fatal("uniform out of range")
	}
}

func TestExponentialMeanAndQuantile(t *testing.T) {
	r := rng.New(2)
	e := Exponential{Lambda: 0.5}
	xs := sample(e, r, 200000)
	if m := stats.Mean(xs); math.Abs(m-2) > 0.03 {
		t.Fatalf("exp mean = %v", m)
	}
	// Empirical median vs analytic.
	if med := stats.Median(xs); math.Abs(med-e.Quantile(0.5)) > 0.02 {
		t.Fatalf("exp median = %v, want %v", med, e.Quantile(0.5))
	}
}

func TestHyperExpValidation(t *testing.T) {
	if _, err := NewHyperExp([]float64{0.5}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewHyperExp([]float64{0.5, 0.6}, []float64{1, 2}); err == nil {
		t.Fatal("probabilities not summing to 1 accepted")
	}
	if _, err := NewHyperExp([]float64{0.5, 0.5}, []float64{1, -2}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestHyperExpMean(t *testing.T) {
	h, err := NewHyperExp([]float64{0.7, 0.3}, []float64{1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	xs := sample(h, r, 300000)
	want := h.Mean() // 0.7*1 + 0.3*10 = 3.7
	if math.Abs(want-3.7) > 1e-12 {
		t.Fatalf("analytic mean = %v", want)
	}
	if m := stats.Mean(xs); math.Abs(m-want) > 0.1 {
		t.Fatalf("hyperexp mean = %v, want %v", m, want)
	}
}

func TestHyperExpHigherCV(t *testing.T) {
	// A hyper-exponential must have CV >= 1 (long-tail property the
	// paper's section 8 relies on).
	h, _ := NewHyperExp([]float64{0.9, 0.1}, []float64{2, 0.05})
	r := rng.New(4)
	xs := sample(h, r, 200000)
	cv := stats.StdDev(xs) / stats.Mean(xs)
	if cv < 1.1 {
		t.Fatalf("hyperexp CV = %v, want > 1.1", cv)
	}
}

func TestErlangMoments(t *testing.T) {
	r := rng.New(5)
	e := Erlang{K: 4, Lambda: 2}
	xs := sample(e, r, 200000)
	if m := stats.Mean(xs); math.Abs(m-2) > 0.02 {
		t.Fatalf("erlang mean = %v, want 2", m)
	}
	// Var = K/λ² = 1
	if v := stats.Variance(xs); math.Abs(v-1) > 0.03 {
		t.Fatalf("erlang variance = %v, want 1", v)
	}
}

func TestHyperErlangMean(t *testing.T) {
	h := HyperErlang{
		P:      []float64{0.6, 0.4},
		K:      []int{2, 5},
		Lambda: []float64{1, 0.5},
	}
	want := 0.6*2 + 0.4*10 // 5.2
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("analytic mean = %v", h.Mean())
	}
	r := rng.New(6)
	xs := sample(h, r, 200000)
	if m := stats.Mean(xs); math.Abs(m-want) > 0.1 {
		t.Fatalf("hypererlang mean = %v, want %v", m, want)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []Gamma{{Alpha: 0.5, Beta: 2}, {Alpha: 3, Beta: 1.5}, {Alpha: 9, Beta: 0.5}} {
		r := rng.New(7)
		xs := sample(tc, r, 200000)
		wantMean := tc.Alpha * tc.Beta
		wantVar := tc.Alpha * tc.Beta * tc.Beta
		if m := stats.Mean(xs); math.Abs(m-wantMean) > 0.05*wantMean+0.01 {
			t.Fatalf("gamma(%v,%v) mean = %v, want %v", tc.Alpha, tc.Beta, m, wantMean)
		}
		if v := stats.Variance(xs); math.Abs(v-wantVar) > 0.08*wantVar+0.02 {
			t.Fatalf("gamma(%v,%v) var = %v, want %v", tc.Alpha, tc.Beta, v, wantVar)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	r := rng.New(8)
	g := Gamma{Alpha: 0.3, Beta: 1}
	for i := 0; i < 10000; i++ {
		if g.Sample(r) <= 0 {
			t.Fatal("gamma produced non-positive variate")
		}
	}
}

func TestHyperGammaMean(t *testing.T) {
	h := HyperGamma{P: 0.25, G1: Gamma{Alpha: 2, Beta: 1}, G2: Gamma{Alpha: 4, Beta: 3}}
	want := 0.25*2 + 0.75*12
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("analytic mean = %v", h.Mean())
	}
	r := rng.New(9)
	xs := sample(h, r, 200000)
	if m := stats.Mean(xs); math.Abs(m-want) > 0.15 {
		t.Fatalf("hypergamma mean = %v, want %v", m, want)
	}
}

func TestWeibullMedian(t *testing.T) {
	r := rng.New(10)
	w := Weibull{K: 1.5, Lambda: 3}
	xs := sample(w, r, 200000)
	want := 3 * math.Pow(math.Ln2, 1/1.5)
	if med := stats.Median(xs); math.Abs(med-want) > 0.03 {
		t.Fatalf("weibull median = %v, want %v", med, want)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := rng.New(11)
	l := LogNormal{Mu: 2, Sigma: 0.8}
	xs := sample(l, r, 200000)
	if med := stats.Median(xs); math.Abs(med-math.Exp(2)) > 0.1 {
		t.Fatalf("lognormal median = %v, want %v", med, math.Exp(2))
	}
}

func TestLogNormalFromMedianInterval(t *testing.T) {
	// The constructor must hit both the requested median and the
	// requested 90% interval — this is the calibration backbone of the
	// site generators.
	cases := []struct{ m, iv float64 }{
		{960, 57216}, // CTC runtimes from Table 1
		{45, 28498},  // SDSC runtimes
		{64, 1472},   // CTC inter-arrivals
		{19, 1168},   // NASA runtimes
	}
	for _, tc := range cases {
		l := LogNormalFromMedianInterval(tc.m, tc.iv)
		if med := math.Exp(l.Mu); math.Abs(med-tc.m) > 1e-9 {
			t.Fatalf("median = %v, want %v", med, tc.m)
		}
		analyticIv := l.Quantile(0.95) - l.Quantile(0.05)
		if math.Abs(analyticIv-tc.iv) > 1e-6*tc.iv {
			t.Fatalf("analytic interval = %v, want %v", analyticIv, tc.iv)
		}
		r := rng.New(12)
		xs := sample(l, r, 400000)
		med, iv := stats.MedianAndInterval(xs, 0.9)
		if math.Abs(med-tc.m)/tc.m > 0.05 {
			t.Fatalf("empirical median = %v, want %v", med, tc.m)
		}
		if math.Abs(iv-tc.iv)/tc.iv > 0.08 {
			t.Fatalf("empirical interval = %v, want %v", iv, tc.iv)
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := rng.New(13)
	p := Pareto{Xm: 1, Alpha: 2}
	xs := sample(p, r, 200000)
	if slices.Min(xs) < 1 {
		t.Fatal("pareto below Xm")
	}
	// Median = Xm * 2^{1/alpha}
	want := math.Pow(2, 0.5)
	if med := stats.Median(xs); math.Abs(med-want) > 0.02 {
		t.Fatalf("pareto median = %v, want %v", med, want)
	}
}

func TestLogUniform(t *testing.T) {
	r := rng.New(14)
	l := LogUniform{Lo: 10, Hi: 1000}
	xs := sample(l, r, 200000)
	if slices.Min(xs) < 10 || slices.Max(xs) > 1000 {
		t.Fatal("loguniform out of range")
	}
	want := math.Sqrt(l.Lo * l.Hi) // ln X is uniform, so the median is the geometric midpoint
	if med := stats.Median(xs); math.Abs(med-want) > 2 {
		t.Fatalf("loguniform median = %v, want %v", med, want)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(50, 1.2)
	r := rng.New(15)
	for i := 0; i < 10000; i++ {
		v := z.SampleInt(r)
		if v < 1 || v > 50 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	z := NewZipf(10, 1.5)
	r := rng.New(16)
	counts := make([]int, 11)
	for i := 0; i < 200000; i++ {
		counts[z.SampleInt(r)]++
	}
	// Rank 1 must be clearly more frequent than rank 5, which beats rank 10.
	if !(counts[1] > counts[5] && counts[5] > counts[10]) {
		t.Fatalf("zipf counts not decreasing: %v", counts[1:])
	}
}

func TestDiscreteValidation(t *testing.T) {
	if _, err := NewDiscrete([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewDiscrete([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewDiscrete([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestDiscreteFrequencies(t *testing.T) {
	d, err := NewDiscrete([]float64{10, 20, 30}, []float64{1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	if math.Abs(float64(counts[30])/n-0.7) > 0.01 {
		t.Fatalf("weight-7 value frequency = %v", float64(counts[30])/n)
	}
	if math.Abs(float64(counts[10])/n-0.1) > 0.01 {
		t.Fatalf("weight-1 value frequency = %v", float64(counts[10])/n)
	}
}

func TestJobSizeRangeAndPow2Emphasis(t *testing.T) {
	js := NewJobSize(128, 10, 1.5)
	r := rng.New(18)
	counts := make([]int, 129)
	for i := 0; i < 200000; i++ {
		s := js.SampleInt(r)
		if s < 1 || s > 128 {
			t.Fatalf("job size out of range: %d", s)
		}
		counts[s]++
	}
	// Power of two 32 must be much more common than neighbors 31 and 33.
	if counts[32] < 3*counts[31] || counts[32] < 3*counts[33] {
		t.Fatalf("pow2 emphasis missing: c31=%d c32=%d c33=%d", counts[31], counts[32], counts[33])
	}
	// Small jobs dominate.
	if counts[1] < counts[100] {
		t.Fatal("harmonic shape missing: size 1 rarer than size 100")
	}
}

func TestNormCDFQuantileRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(raw uint16) bool {
		p := (float64(raw) + 0.5) / 65537.0
		x := NormQuantile(p)
		return math.Abs(NormCDF(x)-p) < 1e-12
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.05, -1.6448536269514722},
		{0.9999, 3.719016485455709},
	}
	for _, tc := range cases {
		if got := NormQuantile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("NormQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("endpoint behaviour wrong")
	}
}

func BenchmarkGammaSample(b *testing.B) {
	r := rng.New(20)
	g := Gamma{Alpha: 2.5, Beta: 1}
	for i := 0; i < b.N; i++ {
		g.Sample(r)
	}
}

func BenchmarkJobSizeSample(b *testing.B) {
	js := NewJobSize(512, 10, 1.5)
	r := rng.New(21)
	for i := 0; i < b.N; i++ {
		js.SampleInt(r)
	}
}

// TestQuantileSampleAgreement is the inverse-CDF contract: the empirical
// quantiles of large samples must match the closed-form quantiles. This
// is what makes every Quantile-bearing distribution usable as a copula
// marginal.
func TestQuantileSampleAgreement(t *testing.T) {
	type qd interface {
		Sampler
		Quantile(float64) float64
	}
	cases := []struct {
		name string
		d    qd
	}{
		{"uniform", Uniform{Lo: 3, Hi: 9}},
		{"exponential", Exponential{Lambda: 0.25}},
		{"weibull", Weibull{K: 1.5, Lambda: 4}},
		{"pareto", Pareto{Xm: 2, Alpha: 2.5}},
		{"loguniform", LogUniform{Lo: 1, Hi: 1000}},
		{"lognormal", LogNormal{Mu: 1, Sigma: 0.7}},
	}
	r := rng.New(99)
	for _, tc := range cases {
		xs := sample(tc.d, r, 200000)
		for _, p := range []float64{0.1, 0.5, 0.9} {
			want := tc.d.Quantile(p)
			got := stats.Quantile(xs, p)
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("%s q%.0f: empirical %v vs analytic %v", tc.name, p*100, got, want)
			}
		}
	}
}
