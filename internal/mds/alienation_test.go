package mds

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"coplot/internal/par"
	"coplot/internal/rng"
)

// randomPairSet draws m (dissimilarity, distance) pairs. Quantizing a
// slice of the draws manufactures exact ties in both sequences — the
// tie handling of the rank decomposition is where an implementation
// would silently diverge from the quadratic definition. corr > 0 mixes
// the dissimilarity into the distance, the regime of a real solve
// (distances track dissimilarities, |μ| well away from 0).
func randomPairSet(r *rng.Source, m int, offset, corr float64) ([]pair, []float64) {
	diss := make([]pair, m)
	dist := make([]float64, m)
	for k := 0; k < m; k++ {
		s := 3 * r.Float64()
		d := (1-corr)*2*r.Float64() + corr*s
		if r.Float64() < 0.25 { // force tie clusters
			s = math.Round(s*8) / 8
			d = math.Round(d*8) / 8
		}
		diss[k] = pair{i: 0, j: k + 1, s: offset + s}
		dist[k] = offset + d
	}
	return diss, dist
}

// alienationNaiveCompensated is the same O(m²) double loop as
// alienationNaive with Neumaier-compensated accumulation: at millions
// of terms the plain oracle's own summation noise reaches ~1e-12, so
// the property test compares against the accurately-summed form of the
// identical sums instead.
func alienationNaiveCompensated(diss []pair, dist []float64) float64 {
	m := len(diss)
	var num, numC, den, denC float64
	add := func(sum, comp *float64, v float64) {
		t := *sum + v
		if math.Abs(*sum) >= math.Abs(v) {
			*comp += (*sum - t) + v
		} else {
			*comp += (v - t) + *sum
		}
		*sum = t
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			ds := diss[a].s - diss[b].s
			dd := dist[a] - dist[b]
			add(&num, &numC, ds*dd)
			add(&den, &denC, math.Abs(ds)*math.Abs(dd))
		}
	}
	return alienationFromMu(num+numC, den+denC)
}

// TestAlienationFastMatchesNaive pins the O(m log m) decomposition to
// the O(m²) double loop of equation (3): on random pair sets — with
// ties, a large common offset that stresses the centered identity's
// cancellation, and solve-like correlated distances — the two must
// agree to 1e-12.
func TestAlienationFastMatchesNaive(t *testing.T) {
	sizes := []int{1, 2, 37, 500, 2048, 9000}
	if !testing.Short() {
		sizes = append(sizes, 20011)
	}
	for seed := uint64(0); seed < 6; seed++ {
		for _, m := range sizes {
			for _, offset := range []float64{0, 100} {
				for _, corr := range []float64{0, 0.7} {
					name := fmt.Sprintf("seed%d/m%d/offset%g/corr%g", seed, m, offset, corr)
					t.Run(name, func(t *testing.T) {
						r := rng.New(7000 + seed)
						diss, dist := randomPairSet(r, m, offset, corr)
						want := alienationNaiveCompensated(diss, dist)
						got := alienationFast(diss, dist, nil)
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("fast Θ = %.17g, naive Θ = %.17g (diff %g)", got, want, got-want)
						}
					})
				}
			}
		}
	}
}

// TestAlienationFastDeterministicAcrossBudgets: the blocked moment pass
// must be byte-identical at any worker count (fixed partition, ordered
// reduction), so the fast path is one value, not one per -jobs.
func TestAlienationFastDeterministicAcrossBudgets(t *testing.T) {
	r := rng.New(99)
	diss, dist := randomPairSet(r, 50000, 10, 0.5)
	serial := alienationFast(diss, dist, nil)
	for _, jobs := range []int{2, 4, 7} {
		got := alienationFast(diss, dist, par.NewBudget(jobs))
		if got != serial {
			t.Fatalf("jobs=%d: Θ = %.17g, serial Θ = %.17g", jobs, got, serial)
		}
	}
}

// TestAlienationOfDispatch: below the threshold the dispatching entry
// point must return the bit-exact naive value — the paper's 15×15
// matrices (105 pairs) and all small fixtures ride on that.
func TestAlienationOfDispatch(t *testing.T) {
	r := rng.New(123)
	diss, dist := randomPairSet(r, 105, 0, 0.5)
	if got, want := alienationOf(diss, dist, nil), alienationNaive(diss, dist); got != want {
		t.Fatalf("small input not bit-identical to naive: %v vs %v", got, want)
	}
	diss, dist = randomPairSet(r, alienationNaiveMaxPairs+1, 0, 0.5)
	if got, want := alienationOf(diss, dist, nil), alienationFast(diss, dist, nil); got != want {
		t.Fatalf("large input did not take the fast path: %v vs %v", got, want)
	}
}

// alienationFastPdq is alienationFast as it was before the sort
// kernel: stored centered sequences, d ranked by a pdqsort through
// cmp.Compare, and four separate Fenwick trees. It is the oracle the
// kernel-ranked version is held to bit for bit.
func alienationFastPdq(diss []pair, dist []float64) float64 {
	m := len(diss)
	var sumS, sumD float64
	for k, p := range diss {
		sumS += p.s
		sumD += dist[k]
	}
	meanS, meanD := sumS/float64(m), sumD/float64(m)
	s := make([]float64, m)
	d := make([]float64, m)
	for k, p := range diss {
		s[k] = p.s - meanS
		d[k] = dist[k] - meanD
	}
	nb := (m + alienMomentBlock - 1) / alienMomentBlock
	var ss, sd, ssd float64
	for bi := 0; bi < nb; bi++ {
		lo, hi := bi*alienMomentBlock, min((bi+1)*alienMomentBlock, m)
		var bs, bd, bsd float64
		for k := lo; k < hi; k++ {
			bs += s[k]
			bd += d[k]
			bsd += s[k] * d[k]
		}
		ss += bs
		sd += bd
		ssd += bsd
	}
	num := float64(m)*ssd - ss*sd

	order := make([]int, m)
	for k := range order {
		order[k] = k
	}
	if !slices.IsSorted(s) {
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(s[a], s[b]), a-b) })
	}
	byD := make([]int, m)
	copy(byD, order)
	slices.SortFunc(byD, func(a, b int) int { return cmp.Compare(d[a], d[b]) })
	rank := make([]int, m)
	r := 0
	for i, k := range byD {
		if i == 0 || d[k] != d[byD[i-1]] {
			r++
		}
		rank[k] = r
	}
	tree := func() []float64 { return make([]float64, r+1) }
	add := func(t []float64, i int, v float64) {
		for ; i < len(t); i += i & -i {
			t[i] += v
		}
	}
	sum := func(t []float64, i int) float64 {
		s := 0.0
		for ; i > 0; i -= i & -i {
			s += t[i]
		}
		return s
	}
	cnt, fd, fs, fsd := tree(), tree(), tree(), tree()
	var den, totCnt, totD, totS, totSD float64
	for _, k := range order {
		sb, db, rb := s[k], d[k], rank[k]
		cLE, dLE, sLE, sdLE := sum(cnt, rb), sum(fd, rb), sum(fs, rb), sum(fsd, rb)
		cGT, dGT, sGT, sdGT := totCnt-cLE, totD-dLE, totS-sLE, totSD-sdLE
		ab := db*cLE - dLE + dGT - db*cGT
		bb := db*sLE - sdLE + sdGT - db*sGT
		den += sb*ab - bb
		add(cnt, rb, 1)
		add(fd, rb, db)
		add(fs, rb, sb)
		add(fsd, rb, sb*db)
		totCnt++
		totD += db
		totS += sb
		totSD += sb * db
	}
	return alienationFromMu(num, den)
}

// TestAlienationFastMatchesPdqOracle holds alienationFast bit for bit
// to its pdqsort-ranked predecessor, just past the naive cutoff (8,193
// pairs) and at a 251-point solve's 31,375: on continuous distances,
// on distances drawn from a few tied levels, on pairs in the solver's
// ascending-s order and in arbitrary order, and on distances holding a
// NaN or +Inf (the comparison fallback).
func TestAlienationFastMatchesPdqOracle(t *testing.T) {
	dists := map[string]func(r *rng.Source, k int, s float64) float64{
		"continuous": func(r *rng.Source, k int, s float64) float64 { return 0.3*s + 2*r.Float64() },
		"tied":       func(r *rng.Source, k int, s float64) float64 { return float64(r.Intn(6)) },
		"mixed": func(r *rng.Source, k int, s float64) float64 {
			if r.Intn(3) == 0 {
				return math.Round(s*4) / 4
			}
			return s + r.Float64()
		},
		"nan": func(r *rng.Source, k int, s float64) float64 {
			if k%1001 == 17 {
				return math.NaN()
			}
			return s * r.Float64()
		},
		"inf": func(r *rng.Source, k int, s float64) float64 {
			if k%1001 == 17 {
				return math.Inf(1)
			}
			return s * r.Float64()
		},
	}
	for name, gen := range dists {
		for _, m := range []int{alienationNaiveMaxPairs + 1, 31375} {
			for _, ascending := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/m%d/ascending=%v", name, m, ascending), func(t *testing.T) {
					r := rng.New(uint64(m))
					diss := make([]pair, m)
					dist := make([]float64, m)
					for k := range diss {
						diss[k] = pair{i: k, j: k + 1, s: math.Round(40*r.Float64()) / 8}
					}
					if ascending {
						slices.SortStableFunc(diss, func(a, b pair) int { return cmp.Compare(a.s, b.s) })
					}
					for k := range dist {
						dist[k] = gen(r, k, diss[k].s)
					}
					got, want := alienationFast(diss, dist, nil), alienationFastPdq(diss, dist)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("Θ = %.17g (%#x), oracle %.17g (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
					}
				})
			}
		}
	}
}

// BenchmarkAlienationFast times the exact Θ of a landmark-scale solve:
// the 31,375 pairs of the 251-point city-block matrix against the
// distances of its classical-scaling configuration, in the solver's
// ascending-s pair order.
func BenchmarkAlienationFast(b *testing.B) {
	d := landmarkPinnedDissim(b)
	x, err := Classical(d, 2)
	if err != nil {
		b.Fatal(err)
	}
	diss := flattenPairs(d)
	dist := make([]float64, len(diss))
	for k, p := range diss {
		dx, dy := x.At(p.i, 0)-x.At(p.j, 0), x.At(p.i, 1)-x.At(p.j, 1)
		dist[k] = math.Sqrt(dx*dx + dy*dy)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTheta = alienationFast(diss, dist, nil)
	}
}

// benchTheta keeps BenchmarkAlienationFast's result live.
var benchTheta float64
