// Package mds implements the multidimensional-scaling stage of Co-plot:
// Guttman's Smallest Space Analysis (SSA), a non-metric MDS that maps a
// dissimilarity matrix into a low-dimensional Euclidean space so that the
// rank order of map distances matches the rank order of dissimilarities.
//
// The implementation initializes with Torgerson's classical scaling and
// then iterates SMACOF majorization steps whose target "disparities" are
// Guttman rank images (or, optionally, Kruskal monotone regression via
// PAVA, or the raw dissimilarities for pure metric MDS). Goodness of fit
// is the paper's coefficient of alienation Θ = sqrt(1 − μ²), with μ
// computed exactly as in equation (3) over all pairs of pairs.
package mds

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"coplot/internal/mat"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/stats"
)

// DisparityMethod selects how target distances are derived from the
// dissimilarity order during the non-metric iterations.
type DisparityMethod int

const (
	// RankImage is Guttman's transformation: the sorted multiset of
	// current configuration distances is reassigned to pairs in
	// dissimilarity order. This is the SSA behaviour.
	RankImage DisparityMethod = iota
	// Monotone uses Kruskal's least-squares monotone regression (PAVA).
	Monotone
	// Metric skips the monotone step and fits distances to the raw
	// dissimilarities (classical metric SMACOF), kept for ablation.
	Metric
)

// Options tune the SSA solver.
type Options struct {
	Dims     int             // output dimensionality; default 2
	MaxIter  int             // default 300
	Tol      float64         // relative stress-improvement stop; default 1e-7
	Method   DisparityMethod // default RankImage
	Restarts int             // extra random restarts; best result wins. default 4; -1 disables them
	Seed     uint64          // seed for the random restarts

	// InitialConfig, when non-nil, warm-starts the solver: it replaces
	// Torgerson classical scaling as start 0, so the descent begins
	// from a prior solution instead of a cold analytic guess. Rows must
	// match the dissimilarity order and Cols the output dims. Combined
	// with Restarts: -1 the solve is a single warm descent — the
	// streaming layer's update path, which converges in a few
	// iterations when the dissimilarities changed only slightly. The
	// matrix is cloned before use and never mutated; the clone is
	// centered and rescaled to the dissimilarity scale before the
	// descent (scale carries no rank information, and re-anchoring it
	// keeps chained warm solves from contracting toward a collapsed
	// configuration).
	InitialConfig *mat.Matrix

	// Landmarks, when positive, switches cold solves on matrices with
	// more observations than the (clamped, see MinLandmarks) landmark
	// count to landmark MDS: that many landmarks are chosen by
	// farthest-point sampling and embedded by the full multi-start
	// solver, every remaining observation is placed independently by
	// distance-based majorization against the fixed landmark
	// positions, and at most 20 full-matrix SMACOF iterations
	// (landmarkPolish; Result.Iterations reports them) refine the
	// assembled configuration. The full solve is O(starts · iters · n²)
	// while the landmark solve is O(starts · iters · k²) plus O(n·k)
	// placement plus the short polish, so at n ≥ 1000 it is the
	// difference between minutes and interactive time. 0 keeps
	// the exact full solve. A warm-started solve (InitialConfig) never
	// uses landmarks — a warm descent is already a few cheap
	// iterations from its seed.
	Landmarks int

	// LandmarkSet pins the landmark indices instead of farthest-point
	// sampling; it is consulted only when Landmarks > 0. The streaming
	// layer pins the previous solve's set here so consecutive
	// re-anchors over slowly drifting data keep the same reference
	// frame instead of re-sampling into a slightly different one.
	LandmarkSet []int

	// Par is the shared worker budget (see internal/par) for the
	// multi-start fan-out and the blocked distance loops. Nil runs the
	// solver serially. Any budget produces byte-identical results: all
	// start configurations are drawn from one serial RNG stream before
	// the fan-out, and the winner is selected by the explicit
	// (alienation, start index) order.
	Par *par.Budget

	// Trace, when non-nil, observes every SMACOF iteration of every
	// start: the start index (0 = classical scaling, then the random
	// restarts), the iteration number, and the stress-1 value of the
	// configuration entering that iteration. It never alters the fit —
	// property tests use it to check the majorization descent. A
	// non-nil Trace forces the starts to run serially (Par is ignored)
	// so the observed (start, iter) stream is totally ordered.
	Trace func(start, iter int, stress float64)
}

func (o Options) withDefaults() Options {
	if o.Dims <= 0 {
		o.Dims = 2
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	} else if o.Restarts == 0 {
		o.Restarts = 4
	}
	return o
}

// Result is a fitted configuration.
type Result struct {
	// Config holds one row of coordinates per observation.
	Config *mat.Matrix
	// Alienation is Guttman's coefficient Θ; values below 0.15 are
	// conventionally considered a good fit.
	Alienation float64
	// Stress is Kruskal's stress-1 of the final configuration.
	Stress float64
	// Iterations actually performed (best restart).
	Iterations int
	// Converged reports whether the descent halted with its final
	// step inside the tolerance band: |change| < Tol·(previous
	// stress). False when the iteration cap ran out — and, crucially,
	// when the halt was triggered by a stress *rise* beyond the
	// tolerance: rank-image disparities are not a descent guarantee,
	// so the solver stops when a step makes things worse, but such a
	// stop is not convergence and warm-accept gates must not treat it
	// as one.
	Converged bool
	// Start is the index of the winning start: 0 for classical scaling,
	// k for the k-th random restart.
	Start int
	// Landmarks holds the landmark indices a landmark solve embedded
	// first (in selection order), nil for a full solve. Callers that
	// re-solve the same growing matrix (the streaming layer) feed it
	// back through Options.LandmarkSet to keep the reference frame
	// stable across solves.
	Landmarks []int
}

// DegenerateInputError reports dissimilarities that admit no meaningful
// non-metric fit — e.g. a constant matrix, whose rank order carries no
// information: every configuration would report a perfect Alienation of
// 0, so the solver refuses instead of returning one.
type DegenerateInputError struct {
	// Reason describes the degeneracy.
	Reason string
}

func (e *DegenerateInputError) Error() string { return "mds: degenerate input: " + e.Reason }

// better reports whether a is a strictly better fit than b under the
// explicit (alienation, start index) order: lower alienation wins, and
// a tie breaks toward the earlier start. This is the total order the
// parallel multi-start reduction uses, chosen so it provably reproduces
// the serial iteration order at any worker count.
func better(a, b Result) bool {
	if a.Alienation != b.Alienation {
		return a.Alienation < b.Alienation
	}
	return a.Start < b.Start
}

// constantDissim reports whether every off-diagonal dissimilarity is
// identical (checkDissim has already established symmetry).
func constantDissim(d *mat.Matrix) bool {
	n := d.Rows
	first := d.At(0, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.At(i, j) != first {
				return false
			}
		}
	}
	return true
}

// Classical performs Torgerson's classical scaling of the dissimilarity
// matrix d into dims dimensions. Negative eigenvalues (from non-Euclidean
// dissimilarities like city-block) are truncated at zero.
func Classical(d *mat.Matrix, dims int) (*mat.Matrix, error) {
	if err := checkDissim(d); err != nil {
		return nil, err
	}
	n := d.Rows
	d2 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d.At(i, j)
			d2.Set(i, j, v*v)
		}
	}
	b := mat.DoubleCenter(d2)
	vals, vecs, err := mat.EigenSym(b)
	if err != nil {
		return nil, err
	}
	x := mat.New(n, dims)
	for k := 0; k < dims && k < n; k++ {
		lambda := vals[k]
		if lambda < 0 {
			lambda = 0
		}
		scale := math.Sqrt(lambda)
		for i := 0; i < n; i++ {
			x.Set(i, k, vecs.At(i, k)*scale)
		}
	}
	return x, nil
}

// SSAContext fits a non-metric MDS configuration to the dissimilarity
// matrix d. The classical-scaling start and the random restarts run
// concurrently on the Options.Par budget; the winner is reduced by the
// explicit (alienation, start index) order, so the output is
// byte-identical to the serial solver at any worker count.
// Cancellation is observed between SMACOF iterations (and by the
// multi-start fan-out), so a caller can abandon a long fit mid-run; a
// cancelled solve returns ctx.Err().
func SSAContext(ctx context.Context, d *mat.Matrix, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := checkDissim(d); err != nil {
		return Result{}, err
	}
	n := d.Rows
	if n < 3 {
		return Result{}, fmt.Errorf("mds: need at least 3 observations, got %d", n)
	}
	if constantDissim(d) {
		return Result{}, &DegenerateInputError{
			Reason: fmt.Sprintf("constant dissimilarities (every pair at %g) carry no rank order", d.At(0, 1)),
		}
	}
	diss := flattenPairs(d)

	if k := opts.landmarkCount(n); k > 0 && opts.InitialConfig == nil {
		res, err := landmarkSSA(ctx, d, diss, k, opts)
		var deg *DegenerateInputError
		if err != nil && errors.As(err, &deg) {
			// The landmark subproblem degenerated (e.g. a constant
			// landmark submatrix) even though the full matrix passed
			// the degeneracy checks above — solve the full problem
			// instead of failing on an artifact of the sampling.
			return ssaMulti(ctx, d, diss, opts)
		}
		return res, err
	}
	return ssaMulti(ctx, d, diss, opts)
}

// ssaMulti is the exact multi-start solve over the full matrix: every
// start runs SMACOF to convergence on all n·(n−1)/2 pairs. opts must
// already have defaults applied and d must have passed the input checks.
func ssaMulti(ctx context.Context, d *mat.Matrix, diss []pair, opts Options) (Result, error) {
	n := d.Rows

	// Generate every start configuration up front from one serial RNG
	// stream, so the fan-out below is free to run them in any order.
	type startConfig struct {
		idx int // 0 = classical scaling, then the random restarts
		x0  *mat.Matrix
	}
	starts := make([]startConfig, 0, opts.Restarts+1)
	var classicalErr error
	if opts.InitialConfig != nil {
		if opts.InitialConfig.Rows != n || opts.InitialConfig.Cols != opts.Dims {
			return Result{}, fmt.Errorf("mds: initial config is %dx%d, want %dx%d",
				opts.InitialConfig.Rows, opts.InitialConfig.Cols, n, opts.Dims)
		}
		// Center the seed and re-anchor its scale to the dissimilarities.
		// Stress-1 and the rank image are scale-invariant, so the rescale
		// never worsens the seed's fit — but without it a chain of warm
		// solves has no scale anchor at all (cold solves inherit theirs
		// from classical scaling) and the slow contraction of the Guttman
		// transform compounds across the chain into a collapsed, falsely
		// perfect configuration. A seed with no extent left carries no
		// shape to warm-start from; fall back to classical scaling then.
		x0 := opts.InitialConfig.Clone()
		center(x0)
		if ScaleToDissim(x0, d) {
			starts = append(starts, startConfig{idx: 0, x0: x0})
		} else if xc, err := Classical(d, opts.Dims); err == nil {
			starts = append(starts, startConfig{idx: 0, x0: xc})
		} else {
			classicalErr = err
		}
	} else if x0, err := Classical(d, opts.Dims); err == nil {
		starts = append(starts, startConfig{idx: 0, x0: x0})
	} else {
		classicalErr = err
	}
	r := rng.New(opts.Seed ^ 0x535341) // "SSA"
	for k := 0; k < opts.Restarts; k++ {
		xr := mat.New(n, opts.Dims)
		for i := range xr.Data {
			xr.Data[i] = r.Norm()
		}
		starts = append(starts, startConfig{idx: k + 1, x0: xr})
	}

	budget := opts.Par
	if opts.Trace != nil {
		budget = nil // keep the observed (start, iter) stream totally ordered
	}
	results := make([]Result, len(starts))
	errs := make([]error, len(starts))
	_ = par.ForEach(ctx, budget, len(starts), func(si int) error {
		res, err := ssaFrom(ctx, d, diss, starts[si].x0, starts[si].idx, opts)
		if err != nil {
			errs[si] = err // a failed start never cancels its siblings
			return nil
		}
		results[si] = res
		return nil
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	best := Result{Alienation: math.Inf(1), Start: -1}
	firstErr := classicalErr
	for si := range starts {
		if errs[si] != nil {
			if firstErr == nil {
				firstErr = errs[si]
			}
			continue
		}
		if best.Start < 0 || better(results[si], best) {
			best = results[si]
		}
	}
	if best.Start < 0 {
		return Result{}, fmt.Errorf("mds: no restart converged: %w", firstErr)
	}
	return best, nil
}

// ScaleToDissim scales x in place so the sum of its squared pairwise
// distances equals the sum of squared dissimilarities — Kruskal's scale
// normalization. Non-metric MDS solutions carry no scale of their own
// (stress-1 and the rank image are invariant under uniform scaling), so
// configurations that must be compared with the rotation-only Align
// should first be brought to this common gauge; the streaming layer
// canonicalizes every accepted embedding this way. Reports false, and
// leaves x untouched, when x has no extent to rescale (all points
// coincident) or d is identically zero.
func ScaleToDissim(x *mat.Matrix, d *mat.Matrix) bool {
	n := x.Rows
	var sumX2, sumD2 float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.0
			for c := 0; c < x.Cols; c++ {
				df := x.At(i, c) - x.At(j, c)
				s += df * df
			}
			sumX2 += s
			sumD2 += d.At(i, j) * d.At(i, j)
		}
	}
	if sumX2 <= 0 || sumD2 <= 0 {
		return false
	}
	f := math.Sqrt(sumD2 / sumX2)
	for k := range x.Data {
		x.Data[k] *= f
	}
	return true
}

// pair indexes the upper triangle of the dissimilarity matrix.
type pair struct {
	i, j int
	s    float64 // dissimilarity
}

func flattenPairs(d *mat.Matrix) []pair {
	n := d.Rows
	out := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, pair{i: i, j: j, s: d.At(i, j)})
		}
	}
	// Sort once by dissimilarity, ties in (i, j) generation order: the
	// stable order the rank image and PAVA both need, as one total
	// order a non-reflective sort can reproduce.
	slices.SortFunc(out, func(a, b pair) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		case a.i != b.i:
			return a.i - b.i
		}
		return a.j - b.j
	})
	return out
}

// minPairsPerBlock is the smallest pair range worth handing to a helper
// worker in the blocked distance loop; below it the goroutine overhead
// outweighs the arithmetic.
const minPairsPerBlock = 4096

// perfectStress is the normalized-stress level below which a fit is
// numerically perfect: distances match disparities to one part in 10⁹
// RMS, far under anything the paper's data can distinguish, and close
// enough to zero that the relative tolerance band degenerates into
// comparing float noise. The Converged verdict treats a halt at or
// under this level as converged regardless of the final step's sign.
const perfectStress = 1e-9

func ssaFrom(ctx context.Context, d *mat.Matrix, diss []pair, x0 *mat.Matrix, start int, opts Options) (Result, error) {
	n := d.Rows
	dims := opts.Dims
	x := x0.Clone()
	m := len(diss)

	dist := make([]float64, m) // current distances in diss order
	disp := make([]float64, m) // disparities in diss order
	xNew := mat.New(n, dims)

	// Every buffer the iteration loop needs is allocated once here and
	// reused: the SMACOF steady state performs no heap allocation, so
	// solve cost scales with arithmetic, not with GC pressure (the
	// bench suite asserts allocs/op is independent of MaxIter).
	scratch := smacofScratch{diag: make([]float64, n)}
	if opts.Method == RankImage {
		scratch.rank = newRankSorter(m)
	}

	// The distance loop is the per-iteration hot spot: embarrassingly
	// parallel over pair ranges, so block it on the budget. Small pair
	// counts (the paper's 15×15 matrices have 105 pairs) stay inline.
	// The block closure is built once — a literal inside
	// computeDistances would be re-allocated every iteration.
	distBlock := func(lo, hi int) error {
		for k := lo; k < hi; k++ {
			p := diss[k]
			s := 0.0
			for c := 0; c < dims; c++ {
				df := x.At(p.i, c) - x.At(p.j, c)
				s += df * df
			}
			dist[k] = math.Sqrt(s)
		}
		return nil
	}
	computeDistances := func() {
		_ = par.ForEachBlock(context.Background(), opts.Par, m, minPairsPerBlock, distBlock)
	}

	computeDisparities := func() error {
		switch opts.Method {
		case RankImage:
			scratch.rank.sort(disp, dist) // k-th smallest distance ↔ k-th smallest dissimilarity
		case Monotone:
			scratch.pava.Fit(disp, dist, nil)
			// Rescale so Σ disp² = Σ dist² (keeps the configuration size).
			var sd, sf float64
			for k := range dist {
				sd += dist[k] * dist[k]
				sf += disp[k] * disp[k]
			}
			switch {
			case sf > 0:
				f := math.Sqrt(sd / sf)
				for k := range disp {
					disp[k] *= f
				}
			case sd > 0:
				// PAVA collapsed to an all-zero fit while the
				// configuration still has extent. Iterating on zero
				// disparities would majorize every point onto the
				// origin and report Alienation ≈ 0 as a perfect fit.
				return &DegenerateInputError{Reason: "monotone regression collapsed the disparities to zero"}
			}
		case Metric:
			var sd, ss float64
			for k, p := range diss {
				disp[k] = p.s
				sd += dist[k] * dist[k]
				ss += p.s * p.s
			}
			switch {
			case ss > 0 && sd > 0:
				f := math.Sqrt(sd / ss)
				for k := range disp {
					disp[k] *= f
				}
			case sd == 0 && ss > 0:
				// Every configuration distance is zero while the
				// dissimilarities still have extent: the points have
				// collapsed onto one location. The Monotone branch
				// already refuses this state; without the same guard
				// here a Metric solve would iterate on it to MaxIter
				// and return a zero-extent "fit".
				return &DegenerateInputError{Reason: "metric fit collapsed: every configuration distance is zero"}
			}
		}
		return nil
	}

	stress := func() float64 {
		var num, den float64
		for k := range dist {
			df := dist[k] - disp[k]
			num += df * df
			den += dist[k] * dist[k]
		}
		if den == 0 {
			return 0
		}
		return math.Sqrt(num / den)
	}

	prev := math.Inf(1)
	iters := 0
	converged := false
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Cancellation is observed between iterations: each SMACOF step
		// runs to completion, so an abandoned solve never leaves a
		// half-updated configuration behind.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		iters = iter + 1
		computeDistances()
		if err := computeDisparities(); err != nil {
			return Result{}, err
		}
		s := stress()
		if opts.Trace != nil {
			opts.Trace(start, iter, s)
		}
		// A perfect fit halts immediately. At stress zero every
		// distance equals its disparity exactly, so the Guttman
		// transform is the identity on a centered configuration —
		// further iterations cannot change the answer. The relative
		// test below can never fire on this state (`prev-s < Tol*prev`
		// is `0 < 0` once prev reaches zero), so without this branch a
		// perfect fit burned the whole iteration cap and was then
		// reported as non-converged — which made small streams, whose
		// few points embed exactly, re-anchor on every append.
		if s == 0 {
			converged = true
			break
		}
		// The loop halts when a step no longer improves the stress by
		// at least the tolerance — including when it makes the stress
		// *rise* (rank-image disparities are not a descent guarantee).
		// But `prev-s < Tol*prev` alone cannot tell those apart, and a
		// rise beyond the tolerance is not convergence: the streaming
		// warm-accept gate keys off that signal, so reporting a
		// worsening step as converged let degrading warm solves
		// through. The halt point is unchanged (configurations stay
		// bit-identical); only the Converged verdict changes, and it
		// uses a symmetric band — |prev−s| < Tol·prev — so an
		// oscillation within tolerance of a settled descent still
		// counts as converged while a genuine degradation does not. A
		// rise-halt at numerically perfect stress still converged: the
		// relative band is meaningless against float noise there.
		if improved := prev - s; improved < opts.Tol*prev {
			converged = improved > -opts.Tol*prev || s <= perfectStress
			break
		}
		prev = s
		doSmacof(x, xNew, diss, dist, disp, n, dims, scratch.diag)
		x, xNew = xNew, x
	}
	computeDistances()
	if err := computeDisparities(); err != nil {
		return Result{}, err
	}

	center(x)
	rotatePrincipal(x)
	res := Result{
		Config:     x,
		Alienation: alienationOf(diss, dist, opts.Par),
		Stress:     stress(),
		Iterations: iters,
		Converged:  converged,
		Start:      start,
	}
	return res, nil
}

// smacofScratch holds the buffers one SMACOF descent reuses across
// iterations — the Guttman-transform diagonal, the rank image's radix
// buffers and the PAVA block buffers — so the iteration loop performs
// no heap allocation.
type smacofScratch struct {
	diag []float64
	rank *rankSorter
	pava stats.PAVAScratch
}

// rankRadixMinPairs is the pair count from which the rank image is
// radix-sorted. Below it copy + sort.Float64s wins: clearing and
// scanning the radix histograms is a fixed ~12 µs. BenchmarkRankImage
// on a 2-vCPU Intel Xeon (linux/amd64, go1.24), pdqsort against radix
// per call: 105 pairs (the paper's 15×15) 2.6 µs / 14 µs, 700 pairs
// 24 µs / 26 µs, 800 pairs 39 µs / 29 µs, 1,225 pairs (a k=50
// landmark sub-solve) 86 µs / 36 µs, 2,016 pairs (a 64-log stream)
// 155 µs / 57 µs, 31,375 pairs (n=251) 4.5 ms / 1.0 ms.
const rankRadixMinPairs = 768

// The radix sort's digits: six 11-bit digits cover a float64's 64
// bits (the histogram pass in radix is unrolled over exactly six).
const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixDigits = 6
)

// maxOrderedBits is math.Float64bits(+Inf). A float64 whose bit pattern
// is at most this is +0, positive or +Inf, and such patterns order as
// unsigned integers exactly like the values; anything above is
// negative (sign bit set, -0 included) or NaN.
const maxOrderedBits = 0x7FF0000000000000

// rankSorter sorts a descent's distances into the rank image. A nil
// *rankSorter sorts with sort.Float64s; a non-nil one holds the LSD
// radix sort's buffers, sized once per descent.
type rankSorter struct {
	keys, tmp []uint64
	count     [radixDigits][1 << radixBits]int
}

// newRankSorter returns the sorter for m distances: nil below
// rankRadixMinPairs, where sort.Float64s is the faster sort.
func newRankSorter(m int) *rankSorter {
	if m < rankRadixMinPairs {
		return nil
	}
	buf := make([]uint64, 2*m)
	return &rankSorter{keys: buf[:m], tmp: buf[m:]}
}

// sort writes dist in ascending order into out (len(out) == len(dist)),
// bit for bit what copy + sort.Float64s writes. Distances are square
// roots of sums of squares, so they are never negative or NaN and the
// radix sort over their bit patterns is exact: the sorted multiset of
// distinct bit patterns is unique. Should a value outside that domain
// appear anyway (a NaN from an overflowing configuration), the input
// is handed to sort.Float64s, whose order for NaN and ±0 the radix
// order would not reproduce.
func (rs *rankSorter) sort(out, dist []float64) {
	if rs == nil || !rs.radix(out, dist) {
		copy(out, dist)
		sort.Float64s(out)
	}
}

// radix is the LSD radix sort behind sort: 11-bit digits of the bit
// patterns, one histogram pass for all digits, and a skipped pass for
// any digit every key shares (the high exponent bits of distances on
// one scale). It reports false, leaving out unspecified, when a value
// is negative or NaN. len(dist) is at least rankRadixMinPairs.
func (rs *rankSorter) radix(out, dist []float64) bool {
	m := len(dist)
	keys, tmp := rs.keys[:m], rs.tmp[:m]
	count := &rs.count
	*count = [radixDigits][1 << radixBits]int{}
	for k, v := range dist {
		b := math.Float64bits(v)
		if b > maxOrderedBits {
			return false
		}
		keys[k] = b
		count[0][b&radixMask]++
		count[1][b>>radixBits&radixMask]++
		count[2][b>>(2*radixBits)&radixMask]++
		count[3][b>>(3*radixBits)&radixMask]++
		count[4][b>>(4*radixBits)&radixMask]++
		count[5][b>>(5*radixBits)&radixMask]++
	}
	src, dst := keys, tmp
	for p := range count {
		shift := p * radixBits
		c := &count[p]
		if c[src[0]>>shift&radixMask] == m {
			continue // every key shares this digit: the pass is the identity
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, b := range src {
			d := b >> shift & radixMask
			dst[c[d]] = b
			c[d]++
		}
		src, dst = dst, src
	}
	for k, b := range src {
		out[k] = math.Float64frombits(b)
	}
	return true
}

// doSmacof writes the Guttman-transform update of x into xNew:
// xNew = (1/n)·B(X)·X, where B_ij = −disp_ij/dist_ij for i≠j (0 when the
// points coincide) and B_ii = Σ_{j≠i} disp_ij/dist_ij. diag is caller-
// provided scratch of length n (contents ignored, overwritten).
func doSmacof(x, xNew *mat.Matrix, diss []pair, dist, disp []float64, n, dims int, diag []float64) {
	// acc_i accumulates Σ_{j≠i} b_ij·x_j; diag_i accumulates Σ_{j≠i} b_ij.
	for i := range xNew.Data {
		xNew.Data[i] = 0
	}
	for i := range diag {
		diag[i] = 0
	}
	for k, p := range diss {
		var b float64
		if dist[k] > 1e-12 {
			b = disp[k] / dist[k]
		}
		diag[p.i] += b
		diag[p.j] += b
		for c := 0; c < dims; c++ {
			xNew.Set(p.i, c, xNew.At(p.i, c)+b*x.At(p.j, c))
			xNew.Set(p.j, c, xNew.At(p.j, c)+b*x.At(p.i, c))
		}
	}
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		for c := 0; c < dims; c++ {
			xNew.Set(i, c, (diag[i]*x.At(i, c)-xNew.At(i, c))*inv)
		}
	}
}

// AlienationWith computes Θ for an explicit dissimilarity matrix and
// configuration, for callers outside the solver. budget drives the
// fast path's blocked moment pass (nil = serial); the result is
// byte-identical at any worker count.
func AlienationWith(d *mat.Matrix, config *mat.Matrix, budget *par.Budget) float64 {
	diss := flattenPairs(d)
	dist := make([]float64, len(diss))
	for k, p := range diss {
		s := 0.0
		for c := 0; c < config.Cols; c++ {
			df := config.At(p.i, c) - config.At(p.j, c)
			s += df * df
		}
		dist[k] = math.Sqrt(s)
	}
	return alienationOf(diss, dist, budget)
}

// center translates the configuration to zero mean per dimension.
func center(x *mat.Matrix) {
	for c := 0; c < x.Cols; c++ {
		m := 0.0
		for i := 0; i < x.Rows; i++ {
			m += x.At(i, c)
		}
		m /= float64(x.Rows)
		for i := 0; i < x.Rows; i++ {
			x.Set(i, c, x.At(i, c)-m)
		}
	}
}

// rotatePrincipal rotates a 2-D configuration to its principal axes so
// output orientation is deterministic (MDS solutions are only defined up
// to rotation/reflection).
func rotatePrincipal(x *mat.Matrix) {
	if x.Cols != 2 {
		return
	}
	var sxx, syy, sxy float64
	for i := 0; i < x.Rows; i++ {
		a, b := x.At(i, 0), x.At(i, 1)
		sxx += a * a
		syy += b * b
		sxy += a * b
	}
	theta := 0.5 * math.Atan2(2*sxy, sxx-syy)
	c, s := math.Cos(theta), math.Sin(theta)
	for i := 0; i < x.Rows; i++ {
		a, b := x.At(i, 0), x.At(i, 1)
		x.Set(i, 0, c*a+s*b)
		x.Set(i, 1, -s*a+c*b)
	}
}

func checkDissim(d *mat.Matrix) error {
	if d.Rows != d.Cols {
		return fmt.Errorf("mds: dissimilarity matrix must be square, got %dx%d", d.Rows, d.Cols)
	}
	for i := 0; i < d.Rows; i++ {
		if d.At(i, i) != 0 {
			return fmt.Errorf("mds: non-zero diagonal at %d", i)
		}
		for j := i + 1; j < d.Cols; j++ {
			// Every comparison with NaN is false, so a NaN or ±Inf
			// cell would slip past the sign and symmetry checks.
			for _, c := range [2][2]int{{i, j}, {j, i}} {
				if v := d.At(c[0], c[1]); math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("mds: non-finite dissimilarity %v at (%d,%d)", v, c[0], c[1])
				}
			}
			if d.At(i, j) < 0 {
				return fmt.Errorf("mds: negative dissimilarity at (%d,%d)", i, j)
			}
			if math.Abs(d.At(i, j)-d.At(j, i)) > 1e-9 {
				return fmt.Errorf("mds: asymmetric dissimilarities at (%d,%d)", i, j)
			}
		}
	}
	return nil
}
