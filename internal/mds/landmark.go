package mds

import (
	"context"
	"fmt"
	"math"

	"coplot/internal/mat"
	"coplot/internal/par"
)

const (
	// MinLandmarks is the smallest landmark count the solver will
	// sample: below it the landmark frame is too thin to anchor the
	// remaining points, so Options.Landmarks values in (0, MinLandmarks)
	// are clamped up to it.
	MinLandmarks = 10

	// landmarkPolish is the full-matrix SMACOF iteration cap of the
	// polish pass that follows landmark placement. A handful of
	// iterations from an already-assembled configuration recovers most
	// of the full solve's fit at a fraction of its cost.
	landmarkPolish = 20

	// placementMaxIter and placementRelTol bound the per-point
	// majorization that places a non-landmark against the fixed
	// landmark frame; the step size is judged relative to the frame's
	// RMS radius.
	placementMaxIter = 60
	placementRelTol  = 1e-7
)

// landmarkCount resolves Options.Landmarks against the observation
// count: the effective landmark count for a landmark solve, or 0 when
// the solver should run the exact full solve (landmarks disabled, or
// the matrix is no bigger than the landmark sample would be).
func (o Options) landmarkCount(n int) int {
	if o.Landmarks <= 0 {
		return 0
	}
	k := o.Landmarks
	if k < MinLandmarks {
		k = MinLandmarks
	}
	if len(o.LandmarkSet) > 0 {
		k = len(o.LandmarkSet)
	}
	if k >= n {
		return 0
	}
	return k
}

// SelectLandmarks picks k landmark indices from the n×n dissimilarity
// matrix by farthest-point (maxmin) sampling: the first landmark is the
// observation with the largest total dissimilarity, and each further
// landmark is the observation farthest from the set chosen so far. The
// selection is deterministic — every tie breaks toward the lowest
// index — and k ≥ n returns every index.
func SelectLandmarks(d *mat.Matrix, k int) []int {
	n := d.Rows
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	first, bestSum := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += d.At(i, j)
		}
		if sum > bestSum {
			first, bestSum = i, sum
		}
	}
	idx := make([]int, 0, k)
	chosen := make([]bool, n)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	cur := first
	for len(idx) < k {
		idx = append(idx, cur)
		chosen[cur] = true
		for i := 0; i < n; i++ {
			if v := d.At(i, cur); v < minDist[i] {
				minDist[i] = v
			}
		}
		next, nextDist := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !chosen[i] && minDist[i] > nextDist {
				next, nextDist = i, minDist[i]
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	return idx
}

// landmarkSSA is the scaled solve behind Options.Landmarks: embed k
// landmarks exactly, place everything else against them, polish
// briefly. A *DegenerateInputError from the landmark subproblem makes
// SSAContext fall back to the exact full solve.
func landmarkSSA(ctx context.Context, d *mat.Matrix, diss []pair, k int, opts Options) (Result, error) {
	n, dims := d.Rows, opts.Dims
	idx := opts.LandmarkSet
	if len(idx) > 0 {
		if err := validateLandmarkSet(idx, n); err != nil {
			return Result{}, err
		}
	} else {
		idx = SelectLandmarks(d, k)
	}

	dl := mat.New(len(idx), len(idx))
	for a, ia := range idx {
		for b, ib := range idx {
			dl.Set(a, b, d.At(ia, ib))
		}
	}
	// The full matrix passed the degeneracy checks, but the sample can
	// still be degenerate (e.g. all landmarks mutually equidistant);
	// report it so the caller falls back to the exact solve.
	if constantDissim(dl) {
		return Result{}, &DegenerateInputError{
			Reason: "constant dissimilarities across the landmark sample",
		}
	}

	subOpts := opts
	subOpts.Landmarks, subOpts.LandmarkSet = 0, nil
	sub, err := ssaMulti(ctx, dl, flattenPairs(dl), subOpts)
	if err != nil {
		return Result{}, err
	}
	y := sub.Config // k×dims, centered, principal-rotated

	x := mat.New(n, dims)
	isLandmark := make([]bool, n)
	for l, i := range idx {
		isLandmark[i] = true
		for c := 0; c < dims; c++ {
			x.Set(i, c, y.At(l, c))
		}
	}
	rest := make([]int, 0, n-len(idx))
	for i := 0; i < n; i++ {
		if !isLandmark[i] {
			rest = append(rest, i)
		}
	}

	// Place every non-landmark independently: a triangulation guess
	// (distance-to-landmark least squares) refined by a few SMACOF-style
	// majorization steps against the fixed landmarks. Each point is its
	// own subproblem, so the fan-out is embarrassingly parallel and
	// deterministic at any worker count. Each block of points shares one
	// scratch buffer, so placement allocates per worker, not per point.
	tri := newTriangulator(y, dl)
	scale := RMSRadius(y)
	_ = par.ForEachBlock(ctx, opts.Par, len(rest), 1, func(lo, hi int) error {
		buf := newPlacement(len(idx), dims)
		for _, i := range rest[lo:hi] {
			placePoint(x, i, d, idx, y, tri, scale, buf)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	popts := subOpts
	popts.MaxIter = landmarkPolish
	res, err := ssaFrom(ctx, d, diss, x, sub.Start, popts)
	if err != nil {
		return Result{}, err
	}
	res.Landmarks = idx
	return res, nil
}

func validateLandmarkSet(idx []int, n int) error {
	if len(idx) < 3 {
		return fmt.Errorf("mds: landmark set needs at least 3 indices, got %d", len(idx))
	}
	seen := make(map[int]bool, len(idx))
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("mds: landmark index %d out of range [0,%d)", i, n)
		}
		if seen[i] {
			return fmt.Errorf("mds: duplicate landmark index %d", i)
		}
		seen[i] = true
	}
	return nil
}

// triangulator precomputes the least-squares machinery of landmark-MDS
// placement: with Y the centered landmark configuration and δ̄² the per-
// landmark mean squared dissimilarity, a new point's coordinates are
// approximately −½·(YᵀY)⁻¹·Yᵀ·(δ² − δ̄²). City-block dissimilarities are
// not Euclidean, so this is only the starting guess the majorization
// refines — but it starts in the right basin, which random inits do not.
type triangulator struct {
	ok     bool
	inv    []float64 // (YᵀY)⁻¹, dims×dims row-major
	meanSq []float64 // δ̄²: per landmark, mean over the sample of dl²
}

func newTriangulator(y *mat.Matrix, dl *mat.Matrix) *triangulator {
	k, dims := y.Rows, y.Cols
	t := &triangulator{meanSq: make([]float64, k)}
	for l := 0; l < k; l++ {
		s := 0.0
		for j := 0; j < k; j++ {
			v := dl.At(l, j)
			s += v * v
		}
		t.meanSq[l] = s / float64(k)
	}
	yty := make([]float64, dims*dims)
	for a := 0; a < dims; a++ {
		for b := 0; b < dims; b++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += y.At(l, a) * y.At(l, b)
			}
			yty[a*dims+b] = s
		}
	}
	inv, ok := invertSmall(yty, dims)
	t.inv, t.ok = inv, ok
	return t
}

// guess writes the triangulation estimate for a point with landmark
// dissimilarities delta into pos, using g (len dims) as scratch; false
// means the landmark frame was rank-deficient (collinear landmarks) and
// pos is untouched.
func (t *triangulator) guess(pos, g []float64, y *mat.Matrix, delta []float64) bool {
	if !t.ok {
		return false
	}
	dims := y.Cols
	clear(g)
	for l, dl := range delta {
		v := dl*dl - t.meanSq[l]
		yl := y.Data[l*dims : l*dims+dims]
		for c := range g {
			g[c] += yl[c] * v
		}
	}
	for c := 0; c < dims; c++ {
		s := 0.0
		for c2 := 0; c2 < dims; c2++ {
			s += t.inv[c*dims+c2] * g[c2]
		}
		pos[c] = -0.5 * s
	}
	return true
}

// invertSmall inverts an n×n row-major matrix by Gauss–Jordan with
// partial pivoting; ok is false when the matrix is (numerically)
// singular.
func invertSmall(a []float64, n int) ([]float64, bool) {
	m := make([]float64, len(a))
	copy(m, a)
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv, pivAbs := -1, 1e-12
		for r := col; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > pivAbs {
				piv, pivAbs = r, v
			}
		}
		if piv < 0 {
			return nil, false
		}
		if piv != col {
			for c := 0; c < n; c++ {
				m[piv*n+c], m[col*n+c] = m[col*n+c], m[piv*n+c]
				inv[piv*n+c], inv[col*n+c] = inv[col*n+c], inv[piv*n+c]
			}
		}
		p := m[col*n+col]
		for c := 0; c < n; c++ {
			m[col*n+c] /= p
			inv[col*n+c] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r*n+col]
			if f == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				m[r*n+c] -= f * m[col*n+c]
				inv[r*n+c] -= f * inv[col*n+c]
			}
		}
	}
	return inv, true
}

// placement is one worker's placePoint scratch: the point's landmark
// dissimilarities, its position, the majorization accumulator and the
// triangulation's right-hand side.
type placement struct{ delta, pos, acc, g []float64 }

func newPlacement(k, dims int) placement {
	buf := make([]float64, k+3*dims)
	return placement{delta: buf[:k], pos: buf[k : k+dims], acc: buf[k+dims : k+2*dims], g: buf[k+2*dims:]}
}

// placePoint positions observation i against the fixed landmark frame:
// triangulation guess (nearest landmark when the frame is degenerate),
// then SMACOF-style majorization of the point's own stress —
// pos ← (1/k)·Σ_l [ y_l + δ_l·(pos−y_l)/‖pos−y_l‖ ] — which is the
// single-point Guttman transform with every landmark held fixed.
func placePoint(x *mat.Matrix, i int, d *mat.Matrix, idx []int, y *mat.Matrix, tri *triangulator, scale float64, buf placement) {
	k, dims := y.Rows, y.Cols
	yd := y.Data
	delta, pos, acc := buf.delta, buf.pos, buf.acc
	for l, j := range idx {
		delta[l] = d.At(i, j)
	}
	if !tri.guess(pos, buf.g, y, delta) {
		near, nearD := 0, math.Inf(1)
		for l := range delta {
			if delta[l] < nearD {
				near, nearD = l, delta[l]
			}
		}
		copy(pos, yd[near*dims:near*dims+dims])
	}
	tol2 := placementRelTol * placementRelTol * scale * scale
	for t := 0; t < placementMaxIter; t++ {
		clear(acc)
		for l := 0; l < k; l++ {
			yl := yd[l*dims : l*dims+dims]
			r := 0.0
			for c, p := range pos {
				df := p - yl[c]
				r += df * df
			}
			r = math.Sqrt(r)
			if r > 1e-12 {
				f := delta[l] / r
				for c, p := range pos {
					acc[c] += yl[c] + f*(p-yl[c])
				}
			} else {
				// Coincident with a landmark: that landmark exerts no
				// directional pull this step.
				for c, v := range yl {
					acc[c] += v
				}
			}
		}
		move := 0.0
		invK := 1 / float64(k)
		for c := 0; c < dims; c++ {
			nc := acc[c] * invK
			df := nc - pos[c]
			move += df * df
			pos[c] = nc
		}
		if move <= tol2 {
			break
		}
	}
	copy(x.Data[i*dims:i*dims+dims], pos)
}
