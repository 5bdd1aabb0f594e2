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
// The dissimilarities are copied out of the pairs first, so the inner
// loop walks two flat slices; the terms and their order are unchanged.
func alienationNaive(diss []pair, dist []float64) float64 {
	m := len(diss)
	s := make([]float64, m)
	for k, p := range diss {
		s[k] = p.s
	}
	dist = dist[:m]
	var num, den float64
	for a := 0; a < m; a++ {
		sa, da := s[a], dist[a]
		sb, db := s[a+1:], dist[a+1:]
		db = db[:len(sb)]
		for b, v := range sb {
			ds := sa - v
			dd := da - db[b]
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

	// Mean-center both sequences. The centered values are recomputed
	// where they are used, s_k = diss[k].s − meanS and d_k = dist[k] −
	// meanD, rather than stored: the same subtraction gives the same
	// bits every time.
	var sumS, sumD float64
	for k, p := range diss {
		sumS += p.s
		sumD += dist[k]
	}
	meanS, meanD := sumS/float64(m), sumD/float64(m)

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
			sk, dk := diss[k].s-meanS, dist[k]-meanD
			mo.ss += sk
			mo.sd += dk
			mo.ssd += sk * dk
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

	// The denominator's buffers, allocated once per call.
	ascDist := make([]float64, m) // the kernel's sorted distances
	ibuf := make([]uint32, 2*m)
	byD, rank := ibuf[:m], ibuf[m:]
	var order []uint32

	// Denominator: visit pairs in ascending s (ties by original index).
	// The solver passes its pairs in flattenPairs order, already
	// ascending in s, so the visit order is the identity and the O(m)
	// check replaces the sort; other callers get the sort.
	sorted := true
	for k := 1; k < m && sorted; k++ {
		sorted = !cmp.Less(diss[k].s-meanS, diss[k-1].s-meanS)
	}
	if !sorted {
		order = make([]uint32, m)
		for k := range order {
			order[k] = uint32(k)
		}
		slices.SortFunc(order, func(a, b uint32) int {
			return cmp.Or(cmp.Compare(diss[a].s-meanS, diss[b].s-meanS), cmp.Compare(a, b))
		})
	}

	// Dense ranks of d (ties share a rank), 1-based for the trees. The
	// sort kernel orders the pairs by dist, and d = dist − meanD rounds
	// monotonically, so that order is also ascending in d; equal d stay
	// adjacent and the ranks, which depend only on d equality, are those
	// of any sort by d. Distances outside the kernel's domain (NaN or
	// negative), or whose mean is not finite (so d is not), rank
	// through a comparison sort on d.
	finite := !math.IsInf(meanD, 0) && !math.IsNaN(meanD)
	ks := newDistSorter(m)
	if !finite || !ks.sort(ascDist, byD, dist, nil) {
		for k := range byD {
			byD[k] = uint32(k)
		}
		copy(byD, order) // the visit order, as the tie order of NaN d
		slices.SortFunc(byD, func(a, b uint32) int { return cmp.Compare(dist[a]-meanD, dist[b]-meanD) })
	}
	r := 0
	prev := 0.0
	for i, k := range byD {
		if dk := dist[k] - meanD; i == 0 || dk != prev {
			r++
			prev = dk
		}
		rank[k] = uint32(r)
	}

	tree := make(fenwick, r+1)
	var den float64
	var tot fenwickNode
	for v := 0; v < m; v++ {
		k := v
		if order != nil {
			k = int(order[v])
		}
		sb, db, rb := diss[k].s-meanS, dist[k]-meanD, int(rank[k])
		le := tree.sum(rb)
		cGT := tot.cnt - le.cnt
		dGT := tot.d - le.d
		sGT := tot.s - le.s
		sdGT := tot.sd - le.sd
		// A_b = Σ|d_b−d_a|: pairs at or below d_b contribute d_b−d_a,
		// pairs above contribute d_a−d_b (ties land in the ≤ branch and
		// contribute exactly zero either way).
		ab := db*le.cnt - le.d + dGT - db*cGT
		// B_b = Σ s_a·|d_b−d_a|, split the same way.
		bb := db*le.s - le.sd + sdGT - db*sGT
		den += sb*ab - bb
		sdb := sb * db
		tree.add(rb, sb, db, sdb)
		tot.cnt++
		tot.d += db
		tot.s += sb
		tot.sd += sdb
	}
	return alienationFromMu(num, den)
}

// fenwickNode holds one node of the four trees alienationFast queries
// together: pair count, Σd, Σs and Σs·d below a rank.
type fenwickNode struct{ cnt, d, s, sd float64 }

// fenwick is a 1-based binary indexed tree over the four prefix sums
// at once; each sum takes the same additions in the same order as a
// tree of its own would.
type fenwick []fenwickNode

func (f fenwick) add(i int, s, d, sd float64) {
	for ; i < len(f); i += i & -i {
		f[i].cnt++
		f[i].d += d
		f[i].s += s
		f[i].sd += sd
	}
}

func (f fenwick) sum(i int) fenwickNode {
	var n fenwickNode
	for ; i > 0; i -= i & -i {
		n.cnt += f[i].cnt
		n.d += f[i].d
		n.s += f[i].s
		n.sd += f[i].sd
	}
	return n
}
