package mds

import (
	"cmp"
	"context"
	"math"
	"slices"

	"coplot/internal/par"
)

// alienationNaiveMaxPairs is the pair count up to which alienationOf
// keeps the literal O(m²) double loop of equation (3). The paper's
// 15-observation matrices (105 pairs) and every landmark subproblem up
// to k = 128 stay on this path, so their results remain bit-identical
// to the original implementation; beyond it the exact decomposition
// below takes over — at n = 1000 (499 500 pairs) the double loop is
// ~1.25e11 operations and simply not runnable per solve.
const alienationNaiveMaxPairs = 8192

// alienMomentBlock is the fixed block length of the parallel moment
// pass. The partition depends only on m — never on the worker count —
// and the per-block sums are reduced in block order, so the result is
// byte-identical at any parallelism (the same contract as the blocked
// distance loop).
const alienMomentBlock = 1 << 15

// alienationOf computes Guttman's coefficient of alienation
// Θ = sqrt(1 − μ²) with μ from equation (3): the normalized sum over all
// pairs of pairs of the product of dissimilarity differences and distance
// differences. diss supplies S in any fixed order and dist the matching
// configuration distances.
//
// Small inputs (≤ alienationNaiveMaxPairs pairs) use the literal
// quadratic double loop; larger inputs use an exact O(m log m)
// decomposition of the same sums (see alienationFast), property-tested
// against the quadratic form. budget parallelizes the fast path's
// blocked moment pass; the solver threads its Options.Par through here.
func alienationOf(diss []pair, dist []float64, budget *par.Budget) float64 {
	if len(diss) <= alienationNaiveMaxPairs {
		return alienationNaive(diss, dist)
	}
	return alienationFast(diss, dist, budget)
}

// alienationNaive is the direct transcription of equation (3): every
// pair of pairs contributes (s_a−s_b)(d_a−d_b) to the numerator and
// |s_a−s_b|·|d_a−d_b| to the denominator.
func alienationNaive(diss []pair, dist []float64) float64 {
	m := len(diss)
	var num, den float64
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			ds := diss[a].s - diss[b].s
			dd := dist[a] - dist[b]
			num += ds * dd
			den += math.Abs(ds) * math.Abs(dd)
		}
	}
	return alienationFromMu(num, den)
}

func alienationFromMu(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	mu := num / den
	v := 1 - mu*mu
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// alienationFast evaluates the same two sums without enumerating pairs
// of pairs.
//
// Numerator — the product expands exactly:
//
//	Σ_{a<b} (s_a−s_b)(d_a−d_b) = m·Σ s_k d_k − (Σ s_k)(Σ d_k)
//
// computed on mean-centered s and d (the sum is translation-invariant,
// and centering removes the catastrophic cancellation the raw identity
// suffers when the means dominate the spreads). The centered moments
// are accumulated over fixed-length blocks on the worker budget and
// reduced in block order.
//
// Denominator — with the pairs visited in ascending s order, the
// absolute value on s drops:
//
//	Σ_{a<b} |s_a−s_b|·|d_a−d_b| = Σ_b ( s_b·A_b − B_b ),
//	A_b = Σ_{a<b} |d_b−d_a|,  B_b = Σ_{a<b} s_a·|d_b−d_a|
//
// and A_b, B_b split on the sign of d_b−d_a, so four Fenwick trees
// indexed by the rank of d — pair count, Σd, Σs, Σs·d below a rank —
// answer both in O(log m) per pair. The scan is inherently sequential
// (each pair queries the prefix of everything inserted before it), so
// this part runs serially; at O(m log m) total it is far from the hot
// spot. The visit order is made deterministic by breaking s ties on the
// original pair index, and tied pairs contribute exactly the same sums
// in either order.
func alienationFast(diss []pair, dist []float64, budget *par.Budget) float64 {
	m := len(diss)

	// Mean-center both sequences.
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

	// Numerator moments, blocked on the budget with a fixed partition.
	nb := (m + alienMomentBlock - 1) / alienMomentBlock
	type moment struct{ ss, sd, ssd float64 }
	moms := make([]moment, nb)
	_ = par.ForEach(context.Background(), budget, nb, func(bi int) error {
		lo := bi * alienMomentBlock
		hi := lo + alienMomentBlock
		if hi > m {
			hi = m
		}
		var mo moment
		for k := lo; k < hi; k++ {
			mo.ss += s[k]
			mo.sd += d[k]
			mo.ssd += s[k] * d[k]
		}
		moms[bi] = mo
		return nil
	})
	var ss, sd, ssd float64
	for _, mo := range moms {
		ss += mo.ss
		sd += mo.sd
		ssd += mo.ssd
	}
	num := float64(m)*ssd - ss*sd

	// Denominator: visit pairs in ascending s (ties by original index).
	// The solver passes its pairs in flattenPairs order, already
	// ascending in s, so the visit order is the identity and the O(m)
	// check replaces the sort; other callers get the sort.
	order := make([]int, m)
	for k := range order {
		order[k] = k
	}
	if !slices.IsSorted(s) {
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(s[a], s[b]), a-b) })
	}

	// Dense ranks of d (ties share a rank), 1-based for the trees.
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

	cnt := newFenwick(r)
	fd := newFenwick(r)
	fs := newFenwick(r)
	fsd := newFenwick(r)
	var den float64
	var totCnt, totD, totS, totSD float64
	for _, k := range order {
		sb, db, rb := s[k], d[k], rank[k]
		cLE := cnt.sum(rb)
		dLE := fd.sum(rb)
		sLE := fs.sum(rb)
		sdLE := fsd.sum(rb)
		cGT := totCnt - cLE
		dGT := totD - dLE
		sGT := totS - sLE
		sdGT := totSD - sdLE
		// A_b = Σ|d_b−d_a|: pairs at or below d_b contribute d_b−d_a,
		// pairs above contribute d_a−d_b (ties land in the ≤ branch and
		// contribute exactly zero either way).
		ab := db*cLE - dLE + dGT - db*cGT
		// B_b = Σ s_a·|d_b−d_a|, split the same way.
		bb := db*sLE - sdLE + sdGT - db*sGT
		den += sb*ab - bb
		cnt.add(rb, 1)
		fd.add(rb, db)
		fs.add(rb, sb)
		fsd.add(rb, sb*db)
		totCnt++
		totD += db
		totS += sb
		totSD += sb * db
	}
	return alienationFromMu(num, den)
}

// fenwick is a 1-based binary indexed tree over float64 prefix sums.
type fenwick struct{ t []float64 }

func newFenwick(n int) *fenwick { return &fenwick{t: make([]float64, n+1)} }

func (f *fenwick) add(i int, v float64) {
	for ; i < len(f.t); i += i & -i {
		f.t[i] += v
	}
}

func (f *fenwick) sum(i int) float64 {
	s := 0.0
	for ; i > 0; i -= i & -i {
		s += f.t[i]
	}
	return s
}
