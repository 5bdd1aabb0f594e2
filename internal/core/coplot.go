// Package core implements the Co-plot method — the paper's primary
// contribution. Co-plot analyzes observations and variables
// simultaneously in four stages (section 2):
//
//  1. each variable is z-normalized (equation 1);
//  2. a city-block dissimilarity matrix between observations is computed
//     (equation 2);
//  3. the observations are mapped to two dimensions with Guttman's
//     Smallest Space Analysis, whose goodness of fit is the coefficient
//     of alienation Θ (equations 3–4);
//  4. each variable is drawn as an arrow from the center of gravity, in
//     the direction that maximizes the correlation between the
//     variable's values and the projections of the points onto it.
//
// Variables whose maximal correlation is low do not fit the
// two-dimensional picture and should be removed; AnalyzeContext
// automates the paper's manual pruning loop with a correlation
// threshold.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"coplot/internal/mat"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/stats"
)

// Dataset is the labeled observation×variable matrix Co-plot analyzes.
type Dataset struct {
	Observations []string
	Variables    []string
	X            [][]float64 // [observation][variable]
}

// Validate checks shape consistency.
func (d *Dataset) Validate() error {
	n, p := len(d.Observations), len(d.Variables)
	if n < 3 {
		return fmt.Errorf("coplot: need at least 3 observations, got %d", n)
	}
	if p < 1 {
		return fmt.Errorf("coplot: need at least 1 variable")
	}
	if len(d.X) != n {
		return fmt.Errorf("coplot: %d data rows for %d observations", len(d.X), n)
	}
	for i, row := range d.X {
		if len(row) != p {
			return fmt.Errorf("coplot: row %d has %d values for %d variables", i, len(row), p)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("coplot: non-finite value at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// Select returns a copy of the dataset restricted to the named variables.
func (d *Dataset) Select(vars []string) (*Dataset, error) {
	idx := make([]int, 0, len(vars))
	for _, v := range vars {
		found := -1
		for j, name := range d.Variables {
			if name == v {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("coplot: no variable %q", v)
		}
		idx = append(idx, found)
	}
	out := &Dataset{
		Observations: append([]string(nil), d.Observations...),
		Variables:    append([]string(nil), vars...),
	}
	for _, row := range d.X {
		nr := make([]float64, len(idx))
		for k, j := range idx {
			nr[k] = row[j]
		}
		out.X = append(out.X, nr)
	}
	return out, nil
}

// DropObservations returns a copy without the named observations, the
// operation behind Figure 2 (removing the LANLb/SDSCb outliers).
func (d *Dataset) DropObservations(names ...string) *Dataset {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	out := &Dataset{Variables: append([]string(nil), d.Variables...)}
	for i, obs := range d.Observations {
		if drop[obs] {
			continue
		}
		out.Observations = append(out.Observations, obs)
		out.X = append(out.X, append([]float64(nil), d.X[i]...))
	}
	return out
}

// Point is a mapped observation.
type Point struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Arrow is a variable's direction of maximal correlation. (DX, DY) is a
// unit vector; Corr is the maximal correlation achieved along it — the
// variable's goodness-of-fit measure in stage 4.
type Arrow struct {
	Name string  `json:"name"`
	DX   float64 `json:"dx"`
	DY   float64 `json:"dy"`
	Corr float64 `json:"corr"`
}

// Angle returns the arrow direction in radians.
func (a Arrow) Angle() float64 { return math.Atan2(a.DY, a.DX) }

// RemovedVariable records a variable eliminated by the pruning loop.
type RemovedVariable struct {
	Name string
	Corr float64 // the correlation it had when removed
}

// Options tune an analysis.
type Options struct {
	// MDS passes through to the SSA solver. Its Par budget also drives
	// the stage-2 dissimilarity computation (CityBlockWith), so one
	// -jobs setting governs the whole pipeline.
	MDS mds.Options
	// PruneThreshold removes, one at a time, variables whose maximal
	// correlation is below this value, re-running the analysis after
	// each removal (0 disables pruning). The paper prunes at roughly 0.7.
	PruneThreshold float64
	// MinVariables stops the pruning loop; default 3.
	MinVariables int
}

// Result of a Co-plot analysis.
type Result struct {
	Points  []Point
	Arrows  []Arrow
	Removed []RemovedVariable

	// Alienation is the stage-3 goodness of fit Θ (≤ 0.15 is good).
	Alienation float64
	// Stress is Kruskal's stress-1 of the final map.
	Stress float64
	// AvgCorr and MinCorr summarize the stage-4 arrow correlations.
	AvgCorr, MinCorr float64

	// ZScores holds the normalized data actually mapped (post-pruning).
	ZScores *mat.Matrix
	// Dissimilarities is the city-block matrix of stage 2.
	Dissimilarities *mat.Matrix
}

// minCityBlockRows is the smallest row range worth handing to a helper
// worker; the paper's 15-observation matrices always run inline.
const minCityBlockRows = 64

// CityBlockWith computes the stage-2 dissimilarity matrix: the sum of
// absolute deviations between normalized observation rows (equation
// 2). The row loop is blocked on the worker budget (nil = serial); each
// block writes a disjoint set of cells, so the result is identical at
// any worker count.
func CityBlockWith(z *mat.Matrix, b *par.Budget) *mat.Matrix {
	n := z.Rows
	d := mat.New(n, n)
	_ = par.ForEachBlock(context.Background(), b, n, minCityBlockRows, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				s := 0.0
				for c := 0; c < z.Cols; c++ {
					s += math.Abs(z.At(i, c) - z.At(j, c))
				}
				d.Set(i, j, s)
				d.Set(j, i, s)
			}
		}
		return nil
	})
	return d
}

// Normalize z-scores each column of the dataset (stage 1).
func Normalize(ds *Dataset) *mat.Matrix {
	n, p := len(ds.Observations), len(ds.Variables)
	z := mat.New(n, p)
	col := make([]float64, n)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			col[i] = ds.X[i][j]
		}
		zc := stats.Normalize(col)
		for i := 0; i < n; i++ {
			z.Set(i, j, zc[i])
		}
	}
	return z
}

// AnalyzeContext runs the full Co-plot pipeline on the dataset.
// Cancellation is observed between pruning rounds and between the
// solver's SMACOF iterations, so a long analysis can be abandoned
// mid-run (a serving layer's request deadline, a user's Ctrl-C). A
// cancelled analysis returns ctx.Err().
func AnalyzeContext(ctx context.Context, ds *Dataset, opts Options) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if opts.MinVariables <= 0 {
		opts.MinVariables = 3
	}
	cur := ds
	var removed []RemovedVariable
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := analyzeOnce(ctx, cur, opts)
		if err != nil {
			return nil, err
		}
		if opts.PruneThreshold <= 0 || len(cur.Variables) <= opts.MinVariables {
			res.Removed = removed
			return res, nil
		}
		// Find the worst-fitting variable.
		worst, worstCorr := -1, opts.PruneThreshold
		for k, a := range res.Arrows {
			if a.Corr < worstCorr {
				worst, worstCorr = k, a.Corr
			}
		}
		if worst < 0 {
			res.Removed = removed
			return res, nil
		}
		removed = append(removed, RemovedVariable{Name: res.Arrows[worst].Name, Corr: res.Arrows[worst].Corr})
		keep := make([]string, 0, len(cur.Variables)-1)
		for _, v := range cur.Variables {
			if v != res.Arrows[worst].Name {
				keep = append(keep, v)
			}
		}
		next, err := cur.Select(keep)
		if err != nil {
			return nil, err
		}
		cur = next
	}
}

// Embedding is the output of stages 3–4: the SSA fit and one arrow per
// variable, fitted on Fit.Config.
type Embedding struct {
	Fit    mds.Result
	Arrows []Arrow
}

// Embed runs stages 3–4 on the normalized data z (one column per name
// in vars) and its dissimilarities d: the SSA map, then one arrow per
// variable fitted on it. AnalyzeContext, the corpus matcher and the
// streaming updater all draw their maps here. A prior frame travels in
// opts (InitialConfig with Restarts −1 for a warm descent, LandmarkSet
// for a pinned landmark sample). The configuration comes back in the
// solver's gauge; callers that compare distances across maps rescale it
// with mds.ScaleToDissim. The arrows need no refit after that: a
// uniform scale changes them only by rounding.
func Embed(ctx context.Context, vars []string, z, d *mat.Matrix, opts mds.Options) (Embedding, error) {
	fit, err := mds.SSAContext(ctx, d, opts)
	if err != nil {
		return Embedding{}, err
	}
	return Embedding{Fit: fit, Arrows: FitArrows(vars, z, fit.Config)}, nil
}

// analyzeOnce runs stages 1–4 without pruning.
func analyzeOnce(ctx context.Context, ds *Dataset, opts Options) (*Result, error) {
	z := Normalize(ds)
	d := CityBlockWith(z, opts.MDS.Par)
	e, err := Embed(ctx, ds.Variables, z, d, opts.MDS)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Points:          Points(ds.Observations, e.Fit.Config),
		Arrows:          e.Arrows,
		Alienation:      e.Fit.Alienation,
		Stress:          e.Fit.Stress,
		ZScores:         z,
		Dissimilarities: d,
	}
	var sum float64
	min := math.Inf(1)
	for _, a := range res.Arrows {
		sum += a.Corr
		if a.Corr < min {
			min = a.Corr
		}
	}
	if len(res.Arrows) > 0 {
		res.AvgCorr = sum / float64(len(res.Arrows))
		res.MinCorr = min
	}
	return res, nil
}

// Points labels the rows of a two-dimensional configuration.
func Points(names []string, config *mat.Matrix) []Point {
	pts := make([]Point, len(names))
	for i, name := range names {
		pts[i] = Point{Name: name, X: config.At(i, 0), Y: config.At(i, 1)}
	}
	return pts
}

// FitArrows computes stage 4: for each variable, the direction through
// the configuration's center of gravity that maximizes the correlation
// between the variable's values and the point projections. The optimal
// direction is the least-squares regression of z_j on the coordinates,
// and the achieved correlation is the multiple correlation coefficient.
// z holds one column of normalized values per name; config one
// coordinate row per observation. Embed calls it for every map.
func FitArrows(names []string, z *mat.Matrix, config *mat.Matrix) []Arrow {
	n := config.Rows
	arrows := make([]Arrow, 0, len(names))
	for j, name := range names {
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			y[i] = z.At(i, j)
		}
		coef, r, err := stats.MultipleOLS(config, y)
		a := Arrow{Name: name}
		if err == nil && !math.IsNaN(r) {
			norm := math.Hypot(coef[1], coef[2])
			if norm > 0 {
				a.DX = coef[1] / norm
				a.DY = coef[2] / norm
			}
			a.Corr = math.Abs(r)
		}
		arrows = append(arrows, a)
	}
	return arrows
}

// FitExtraVariable fits an arrow for a variable that was not part of the
// analysis, on the existing configuration — the paper's section-4 trick
// of reading the "would-be direction" of the removed CPU-load and
// allocation-flexibility variables without redoing the map. values must
// hold one entry per mapped observation, in Points order.
func (r *Result) FitExtraVariable(name string, values []float64) (Arrow, error) {
	if len(values) != len(r.Points) {
		return Arrow{}, fmt.Errorf("coplot: %d values for %d observations", len(values), len(r.Points))
	}
	z := stats.Normalize(values)
	zm := mat.New(len(values), 1)
	for i, v := range z {
		zm.Set(i, 0, v)
	}
	arrows := FitArrows([]string{name}, zm, r.config())
	return arrows[0], nil
}

// Projection returns the signed projection of an observation's point on a
// variable's arrow; positive values mean the observation is above average
// on that variable (in the arrow's direction), negative below.
func (r *Result) Projection(obs string, variable string) (float64, error) {
	var pt *Point
	for i := range r.Points {
		if r.Points[i].Name == obs {
			pt = &r.Points[i]
			break
		}
	}
	if pt == nil {
		return 0, fmt.Errorf("coplot: no observation %q", obs)
	}
	for _, a := range r.Arrows {
		if a.Name == variable {
			return pt.X*a.DX + pt.Y*a.DY, nil
		}
	}
	return 0, fmt.Errorf("coplot: no arrow %q", variable)
}

// ArrowCos returns the cosine of the angle between two arrows, which
// approximates the correlation between the associated variables.
func ArrowCos(a, b Arrow) float64 {
	return a.DX*b.DX + a.DY*b.DY
}

// ClusterArrows groups arrows whose pairwise angles are all within
// maxAngle radians of a cluster seed, using single-linkage agglomeration
// on angular distance. It returns the clusters ordered clockwise from the
// first arrow, matching how the paper enumerates the variable clusters of
// Figure 1.
func ClusterArrows(arrows []Arrow, maxAngle float64) [][]Arrow {
	n := len(arrows)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if angularDistance(arrows[i].Angle(), arrows[j].Angle()) <= maxAngle {
				union(i, j)
			}
		}
	}
	groups := map[int][]Arrow{}
	order := []int{}
	for i, a := range arrows {
		r := find(i)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([][]Arrow, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	// Order clusters by their mean angle for deterministic output.
	sort.SliceStable(out, func(a, b int) bool {
		return meanAngle(out[a]) > meanAngle(out[b])
	})
	return out
}

func angularDistance(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

func meanAngle(arrows []Arrow) float64 {
	var sx, sy float64
	for _, a := range arrows {
		sx += a.DX
		sy += a.DY
	}
	return math.Atan2(sy, sx)
}
