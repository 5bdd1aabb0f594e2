package mds

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// flattenPairsStable is flattenPairs' original ordering: the pairs in
// (i, j) generation order, stably sorted by dissimilarity alone. The
// solver's pair order is defined by it; flattenPairs must reproduce it
// exactly.
func flattenPairsStable(d *mat.Matrix) []pair {
	n := d.Rows
	out := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, pair{i: i, j: j, s: d.At(i, j)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].s < out[b].s })
	return out
}

// TestFlattenPairsMatchesStableOrder: on integer-valued matrices almost
// every dissimilarity is tied, so the (i, j) tie-break carries the
// whole order; it must equal the stable sort's. Continuous and mixed
// (half the cells drawn from a few levels) matrices at n = 251, the
// size of a match against a 250-entry corpus, take the kernel through
// full buckets and re-bucketed ties; negative cells take the
// comparison fallback.
func TestFlattenPairsMatchesStableOrder(t *testing.T) {
	check := func(t *testing.T, d *mat.Matrix) {
		t.Helper()
		got, want := flattenPairs(d), flattenPairsStable(d)
		if len(got) != len(want) {
			t.Fatalf("%d pairs, want %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("pair %d = %+v, want %+v", k, got[k], want[k])
			}
		}
	}
	fill := func(n int, cell func(r *rng.Source) float64, seed uint64) *mat.Matrix {
		r := rng.New(seed)
		d := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := cell(r)
				d.Set(i, j, v)
				d.Set(j, i, v)
			}
		}
		return d
	}
	for seed := uint64(0); seed < 8; seed++ {
		levels := 1 + int(seed)*3 // 1 level: every pair tied
		for _, n := range []int{3, 15, 64, 200} {
			t.Run(fmt.Sprintf("levels/seed%d/n%d", seed, n), func(t *testing.T) {
				check(t, fill(n, func(r *rng.Source) float64 { return float64(r.Intn(levels)) }, 900+seed))
			})
		}
		cells := map[string]func(r *rng.Source) float64{
			"continuous": func(r *rng.Source) float64 { return 9 * r.Float64() },
			"mixed": func(r *rng.Source) float64 {
				if r.Intn(2) == 0 {
					return float64(r.Intn(levels))
				}
				return float64(levels) * r.Float64()
			},
			"negative": func(r *rng.Source) float64 { return r.Float64() - 0.5 },
		}
		for name, cell := range cells {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				check(t, fill(251, cell, 950+seed))
			})
		}
	}
}

// rankImageShapes are the value distributions the rank image is held
// to sort.Float64s on. The first group is in the kernel's domain —
// solve-like distances and the skewed shapes that stress its bucket
// map (one huge outlier, a tight cluster, a few tied levels, all
// zeros, subnormals, MaxFloat64 and +Inf); the rest hold a NaN or a
// negative value (−0 included) and take the fallback.
var rankImageShapes = []struct {
	name string
	gen  func(r *rng.Source, k int) float64
}{
	{"random", func(r *rng.Source, k int) float64 { return math.Sqrt(3 * r.Float64()) }},
	{"outlier", func(r *rng.Source, k int) float64 {
		if k == 7 {
			return 1e300
		}
		return 1 + r.Float64()
	}},
	{"cluster", func(r *rng.Source, k int) float64 {
		if r.Intn(10) != 0 {
			return 1 + 1e-9*r.Float64()
		}
		return 2 * r.Float64()
	}},
	{"tied", func(r *rng.Source, k int) float64 { return float64(r.Intn(5)) }},
	{"zero", func(r *rng.Source, k int) float64 { return 0 }},
	{"subnormal", func(r *rng.Source, k int) float64 {
		return math.Float64frombits(uint64(r.Intn(1 << 20)))
	}},
	{"inf", func(r *rng.Source, k int) float64 {
		switch r.Intn(3) {
		case 0:
			return math.MaxFloat64
		case 1:
			return math.Inf(1)
		}
		return r.Float64()
	}},
	{"mixed", func(r *rng.Source, k int) float64 {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64
		case 2:
			return math.MaxFloat64
		}
		return 1e6 * r.Float64()
	}},
	{"huge", func(r *rng.Source, k int) float64 {
		if r.Intn(3) == 0 {
			return math.MaxFloat64
		}
		return math.Inf(1) * float64(r.Intn(2)) // +Inf or NaN (0·Inf)
	}},
	{"nan", func(r *rng.Source, k int) float64 {
		if k%97 == 3 {
			return math.NaN()
		}
		return r.Float64()
	}},
	{"negative", func(r *rng.Source, k int) float64 {
		if k%89 == 5 {
			return math.Copysign(0, -1)
		}
		return r.Float64() - 0.1
	}},
}

// TestRankImageMatchesSort holds the rank image to copy +
// sort.Float64s bit for bit at every size from one value to a
// 251-point solve's 31,375, and requires the kernel — not the
// fallback — to have sorted exactly the in-domain inputs (no NaN, no
// sign bit), or the comparison proves nothing. On the skewed shapes
// the kernel must also finish by bucketing alone: no key may reach the
// comparison sort at the end of its re-bucketing depth.
func TestRankImageMatchesSort(t *testing.T) {
	sizes := []int{1, 2, 3, 105, 767, 768, 1225, 2016, 31375}
	for _, sh := range rankImageShapes {
		for _, m := range sizes {
			t.Run(fmt.Sprintf("%s/m%d", sh.name, m), func(t *testing.T) {
				r := rng.New(uint64(m))
				dist := make([]float64, m)
				for k := range dist {
					dist[k] = sh.gen(r, k)
				}
				want := append([]float64(nil), dist...)
				sort.Float64s(want)
				got := make([]float64, m)
				ks := newDistSorter(m)
				ks.sortValues(got, dist)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("element %d: %v (%#x), want %v (%#x)", k,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
				inDomain := true
				for _, v := range dist {
					inDomain = inDomain && !math.IsNaN(v) && !math.Signbit(v)
				}
				ks = newDistSorter(m)
				if ok := ks.sort(make([]float64, m), nil, dist, nil); ok != inDomain {
					t.Fatalf("kernel ran = %v on input with in-domain = %v", ok, inDomain)
				}
				if ks.compared != 0 {
					t.Fatalf("%d keys fell through to the comparison sort", ks.compared)
				}
			})
		}
	}
}

// TestDistSortDepthFallback drives the kernel past its re-bucketing
// depth with a geometric spread, where every pass peels off only the
// largest values: the keys that reach the comparison sort must still
// come out in the stable order, tags included.
func TestDistSortDepthFallback(t *testing.T) {
	const m = 4000
	keys := make([]float64, m)
	for k := range keys {
		keys[k] = math.Pow(1.2, float64((k*7919)%(m/2))) // every value twice
	}
	ks := newDistSorter(m)
	sk, st := make([]float64, m), make([]uint32, m)
	if !ks.sort(sk, st, keys, nil) {
		t.Fatal("kernel refused in-domain keys")
	}
	if ks.compared == 0 {
		t.Fatal("the spread never reached the comparison sort")
	}
	want := make([]int, m)
	for k := range want {
		want[k] = k
	}
	sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
	for r, k := range want {
		if st[r] != uint32(k) || sk[r] != keys[k] {
			t.Fatalf("rank %d: key %v tag %d, want %v tag %d", r, sk[r], st[r], keys[k], k)
		}
	}
}

// landmarkPinnedDissim is the fixed landmark-scale input: 251
// observations, the size of a match against a 250-entry corpus, city-
// block distances over 9 variables.
func landmarkPinnedDissim(tb testing.TB) *mat.Matrix {
	return testCityBlockDissim(tb, 251, 9)
}

// TestLandmarkSolvePinned pins every output bit of a landmark-scale
// solve. Its 31,375 pairs take the sort kernel's bulk path and
// alienation's fast path, which the paper-sized fixtures never reach.
// The digest is amd64's: architectures whose compilers fuse
// multiply-adds may round differently.
func TestLandmarkSolvePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is pinned on amd64, not %s", runtime.GOARCH)
	}
	res, err := SSAContext(context.Background(), landmarkPinnedDissim(t), Options{Landmarks: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range res.Config.Data {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(res.Alienation))
	put(math.Float64bits(res.Stress))
	put(uint64(res.Iterations))
	const want = "a68d06299ea2ccacfb96066592c17e9d57f643495ede67815d9f3db4ae1e59ef"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("landmark solve digest %s, want %s (alienation %.17g, stress %.17g, iterations %d)",
			got, want, res.Alienation, res.Stress, res.Iterations)
	}
}

// BenchmarkSSALandmark251 measures one landmark-50 solve at n=251, the
// shape of a served match against a 250-entry corpus.
func BenchmarkSSALandmark251(b *testing.B) {
	d := landmarkPinnedDissim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSAContext(context.Background(), d, Options{Landmarks: 50, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShapes are BenchmarkRankImage's inputs: solve-like distances
// (the norm of a 2-D Gaussian step) and the skewed shapes of
// rankImageShapes, every one in the kernel's domain.
var benchShapes = []string{"solve", "outlier", "cluster", "tied", "zero"}

// BenchmarkRankImage times one rank-image sort per pair count and
// shape, the kernel against copy + sort.Float64s, from a stream's 28
// pairs and the paper's 105 to a 251-point solve's 31,375.
func BenchmarkRankImage(b *testing.B) {
	gens := map[string]func(r *rng.Source, k int) float64{
		"solve": func(r *rng.Source, k int) float64 {
			x, y := r.Norm(), r.Norm()
			return math.Sqrt(x*x + y*y)
		},
	}
	for _, sh := range rankImageShapes {
		gens[sh.name] = sh.gen
	}
	for _, m := range []int{28, 105, 700, 1225, 2016, 31375} {
		for _, shape := range benchShapes {
			r := rng.New(uint64(m))
			dist := make([]float64, m)
			for k := range dist {
				dist[k] = gens[shape](r, k)
			}
			out := make([]float64, m)
			b.Run(fmt.Sprintf("m=%d/%s/sort", m, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(out, dist)
					sort.Float64s(out)
				}
			})
			ks := newDistSorter(m)
			b.Run(fmt.Sprintf("m=%d/%s/kernel", m, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ks.sortValues(out, dist)
				}
			})
		}
	}
}
