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
// whole order; it must equal the stable sort's.
func TestFlattenPairsMatchesStableOrder(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, n := range []int{3, 15, 64, 200} {
			r := rng.New(900 + seed)
			levels := 1 + int(seed)*3 // 1 level: every pair tied
			d := mat.New(n, n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := float64(r.Intn(levels))
					d.Set(i, j, v)
					d.Set(j, i, v)
				}
			}
			got, want := flattenPairs(d), flattenPairsStable(d)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("seed %d n %d: pair %d = %+v, want %+v", seed, n, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRankImageMatchesSort holds the rank image to copy + sort.Float64s
// bit for bit, on both sides of rankRadixMinPairs: random, heavily
// tied, all-zero, subnormal and huge values, and NaN-containing input
// (the fallback path).
func TestRankImageMatchesSort(t *testing.T) {
	sizes := []int{1, 2, 105, rankRadixMinPairs - 1, rankRadixMinPairs, 2016, 31375}
	gens := map[string]func(r *rng.Source, k int) float64{
		"random": func(r *rng.Source, k int) float64 { return math.Sqrt(3 * r.Float64()) },
		"tied":   func(r *rng.Source, k int) float64 { return float64(r.Intn(5)) },
		"zero":   func(r *rng.Source, k int) float64 { return 0 },
		"subnormal": func(r *rng.Source, k int) float64 {
			return math.Float64frombits(uint64(r.Intn(1 << 20)))
		},
		"huge": func(r *rng.Source, k int) float64 {
			if r.Intn(3) == 0 {
				return math.MaxFloat64
			}
			return math.Inf(1) * float64(r.Intn(2)) // +Inf or NaN (0·Inf)
		},
		"mixed": func(r *rng.Source, k int) float64 {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.SmallestNonzeroFloat64
			case 2:
				return math.MaxFloat64
			}
			return 1e6 * r.Float64()
		},
		"nan": func(r *rng.Source, k int) float64 {
			if k%97 == 3 {
				return math.NaN()
			}
			return r.Float64()
		},
		"negative": func(r *rng.Source, k int) float64 {
			if k%89 == 5 {
				return math.Copysign(0, -1)
			}
			return r.Float64() - 0.1
		},
	}
	for name, gen := range gens {
		for _, m := range sizes {
			t.Run(fmt.Sprintf("%s/m%d", name, m), func(t *testing.T) {
				r := rng.New(uint64(m))
				dist := make([]float64, m)
				for k := range dist {
					dist[k] = gen(r, k)
				}
				want := append([]float64(nil), dist...)
				sort.Float64s(want)
				got := make([]float64, m)
				rs := newRankSorter(m)
				rs.sort(got, dist)
				if rs != nil {
					// The radix path must run on every input in its
					// domain, or the comparison below proves nothing.
					inDomain := true
					for _, v := range dist {
						inDomain = inDomain && !math.IsNaN(v) && !math.Signbit(v)
					}
					if ok := rs.radix(make([]float64, m), dist); ok != inDomain {
						t.Fatalf("radix ran = %v on input with in-domain = %v", ok, inDomain)
					}
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("element %d: %v (%#x), want %v (%#x)", k,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			})
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
// solve. Its 31,375 pairs take the rank image's radix path and
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

// BenchmarkRankImage times one rank-image sort per pair count, radix
// against copy + sort.Float64s, on solve-like distances: the data
// behind rankRadixMinPairs.
func BenchmarkRankImage(b *testing.B) {
	for _, m := range []int{105, 700, 800, 1225, 2016, 31375} {
		r := rng.New(uint64(m))
		dist := make([]float64, m)
		for k := range dist {
			x, y := r.Norm(), r.Norm()
			dist[k] = math.Sqrt(x*x + y*y)
		}
		out := make([]float64, m)
		radix := &rankSorter{keys: make([]uint64, m), tmp: make([]uint64, m)}
		b.Run(fmt.Sprintf("m=%d/sort", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				(*rankSorter)(nil).sort(out, dist)
			}
		})
		b.Run(fmt.Sprintf("m=%d/radix", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				radix.sort(out, dist)
			}
		})
	}
}
