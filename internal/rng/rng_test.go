package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced a stuck all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Parent must continue producing, and the two streams must differ.
	diff := false
	for i := 0; i < 100; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("split stream identical to parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestOpenFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		f := r.OpenFloat64()
		if f <= 0 || f >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(6)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(8)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Norm()
	}
	_ = sink
}

func TestDeriveDeterministic(t *testing.T) {
	if Derive(42, "model:Lublin") != Derive(42, "model:Lublin") {
		t.Fatal("Derive is not a pure function")
	}
}

func TestDeriveLabelsIndependent(t *testing.T) {
	labels := []string{"", "a", "b", "ab", "ba", "model:Lublin", "model:Jann", "bootstrap"}
	seen := map[uint64]string{}
	for _, l := range labels {
		s := Derive(7, l)
		if prev, dup := seen[s]; dup {
			t.Fatalf("labels %q and %q collide on seed %d", prev, l, s)
		}
		seen[s] = l
	}
	// Streams from sibling labels must decorrelate, not just differ.
	a := New(Derive(7, "a"))
	b := New(Derive(7, "b"))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams repeated %d outputs", same)
	}
}

func TestDeriveMasterSensitivity(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		if Derive(seed, "x") == Derive(seed+1, "x") {
			t.Fatalf("masters %d and %d collide", seed, seed+1)
		}
	}
}
