package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"coplot/internal/mds"
	"coplot/internal/rng"
)

// syntheticDataset builds a dataset with two latent dimensions: variables
// 0 and 1 follow latent u, variables 2 and 3 follow latent v, variable 4
// follows −u. Co-plot should place arrows 0,1 together, arrow 4 opposite
// them, and arrows 2,3 orthogonal-ish.
func syntheticDataset(n int, noise float64, seed uint64) *Dataset {
	r := rng.New(seed)
	ds := &Dataset{Variables: []string{"a1", "a2", "b1", "b2", "anti"}}
	for i := 0; i < n; i++ {
		u := r.Norm()
		v := r.Norm()
		ds.Observations = append(ds.Observations, string(rune('A'+i)))
		ds.X = append(ds.X, []float64{
			u + noise*r.Norm(),
			u + noise*r.Norm(),
			v + noise*r.Norm(),
			v + noise*r.Norm(),
			-u + noise*r.Norm(),
		})
	}
	return ds
}

func TestValidate(t *testing.T) {
	ds := &Dataset{Observations: []string{"a", "b"}, Variables: []string{"x"},
		X: [][]float64{{1}, {2}}}
	if err := ds.Validate(); err == nil {
		t.Fatal("2 observations accepted")
	}
	ds3 := &Dataset{Observations: []string{"a", "b", "c"}, Variables: []string{"x"},
		X: [][]float64{{1}, {2}}}
	if err := ds3.Validate(); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	dsNaN := &Dataset{Observations: []string{"a", "b", "c"}, Variables: []string{"x"},
		X: [][]float64{{1}, {math.NaN()}, {3}}}
	if err := dsNaN.Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
	dsRagged := &Dataset{Observations: []string{"a", "b", "c"}, Variables: []string{"x", "y"},
		X: [][]float64{{1, 2}, {3}, {4, 5}}}
	if err := dsRagged.Validate(); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSelectAndDrop(t *testing.T) {
	ds := syntheticDataset(6, 0.1, 1)
	sel, err := ds.Select([]string{"b1", "anti"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Variables) != 2 || sel.Variables[0] != "b1" {
		t.Fatalf("selected variables = %v", sel.Variables)
	}
	if sel.X[0][0] != ds.X[0][2] || sel.X[0][1] != ds.X[0][4] {
		t.Fatal("selected values wrong")
	}
	if _, err := ds.Select([]string{"nope"}); err == nil {
		t.Fatal("unknown variable accepted")
	}
	dropped := ds.DropObservations("A", "C")
	if len(dropped.Observations) != 4 {
		t.Fatalf("dropped to %d observations", len(dropped.Observations))
	}
	for _, o := range dropped.Observations {
		if o == "A" || o == "C" {
			t.Fatal("dropped observation still present")
		}
	}
}

func TestNormalizeColumns(t *testing.T) {
	ds := syntheticDataset(10, 0.2, 2)
	z := Normalize(ds)
	for j := 0; j < z.Cols; j++ {
		var sum, sumsq float64
		for i := 0; i < z.Rows; i++ {
			sum += z.At(i, j)
			sumsq += z.At(i, j) * z.At(i, j)
		}
		mean := sum / float64(z.Rows)
		sd := math.Sqrt(sumsq/float64(z.Rows) - mean*mean)
		if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d: mean=%v sd=%v", j, mean, sd)
		}
	}
}

func TestCityBlockMetricAxioms(t *testing.T) {
	ds := syntheticDataset(8, 0.3, 3)
	d := CityBlockWith(Normalize(ds), nil)
	n := d.Rows
	for i := 0; i < n; i++ {
		if d.At(i, i) != 0 {
			t.Fatal("non-zero self-dissimilarity")
		}
		for j := 0; j < n; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatal("asymmetric")
			}
			if i != j && d.At(i, j) <= 0 {
				t.Fatal("non-positive dissimilarity between distinct points")
			}
			for k := 0; k < n; k++ {
				if d.At(i, k) > d.At(i, j)+d.At(j, k)+1e-9 {
					t.Fatal("triangle inequality violated")
				}
			}
		}
	}
}

func TestAnalyzeRecoversCorrelationStructure(t *testing.T) {
	ds := syntheticDataset(14, 0.15, 4)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Arrow{}
	for _, a := range res.Arrows {
		byName[a.Name] = a
	}
	// a1 and a2 measure the same latent: arrows nearly parallel.
	if cos := ArrowCos(byName["a1"], byName["a2"]); cos < 0.8 {
		t.Fatalf("cos(a1,a2) = %v, want near 1", cos)
	}
	// anti is the negation of a1: arrows nearly opposite.
	if cos := ArrowCos(byName["a1"], byName["anti"]); cos > -0.8 {
		t.Fatalf("cos(a1,anti) = %v, want near -1", cos)
	}
	// b1 is independent of a1: roughly orthogonal.
	if cos := math.Abs(ArrowCos(byName["a1"], byName["b1"])); cos > 0.5 {
		t.Fatalf("|cos(a1,b1)| = %v, want small", cos)
	}
	// All variables are nearly noise-free, so correlations are high.
	if res.AvgCorr < 0.85 {
		t.Fatalf("avg corr = %v", res.AvgCorr)
	}
	if res.Alienation > 0.15 {
		t.Fatalf("alienation = %v", res.Alienation)
	}
}

func TestAnalyzeProjectionsMatchValues(t *testing.T) {
	// Observations above average in a variable must project positively
	// on its arrow (for well-fitting variables).
	ds := syntheticDataset(12, 0.1, 6)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	// Correlation between projections and raw values per variable.
	for j, name := range ds.Variables {
		var projs, vals []float64
		for i, obs := range ds.Observations {
			p, err := res.Projection(obs, name)
			if err != nil {
				t.Fatal(err)
			}
			projs = append(projs, p)
			vals = append(vals, ds.X[i][j])
		}
		r := pearson(projs, vals)
		if r < 0.7 {
			t.Fatalf("variable %s: projection corr = %v", name, r)
		}
	}
}

func pearson(xs, ys []float64) float64 {
	n := len(xs)
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestAnalyzePruning(t *testing.T) {
	// Add a pure-noise variable: it cannot fit the 2-D picture and must
	// be pruned at a high threshold.
	ds := syntheticDataset(14, 0.1, 8)
	r := rng.New(9)
	ds.Variables = append(ds.Variables, "noise")
	for i := range ds.X {
		ds.X[i] = append(ds.X[i], r.Norm())
	}
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 10}, PruneThreshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	prunedNoise := false
	for _, rm := range res.Removed {
		if rm.Name == "noise" {
			prunedNoise = true
		}
	}
	if !prunedNoise {
		t.Fatalf("noise variable survived pruning; removed = %v", res.Removed)
	}
	for _, a := range res.Arrows {
		if a.Name == "noise" {
			t.Fatal("noise arrow still present")
		}
	}
	if res.MinCorr < 0.7 && len(res.Arrows) > 3 {
		t.Fatalf("pruning left min corr %v", res.MinCorr)
	}
}

func TestAnalyzeMinVariablesFloor(t *testing.T) {
	ds := syntheticDataset(10, 2.0, 11) // heavy noise: everything fits badly
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 12}, PruneThreshold: 0.99, MinVariables: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrows) < 4 {
		t.Fatalf("pruned below MinVariables: %d arrows", len(res.Arrows))
	}
}

func TestClusterArrows(t *testing.T) {
	arrows := []Arrow{
		{Name: "e", DX: 1, DY: 0},
		{Name: "e2", DX: math.Cos(0.1), DY: math.Sin(0.1)},
		{Name: "n", DX: 0, DY: 1},
		{Name: "w", DX: -1, DY: 0.05},
	}
	clusters := ClusterArrows(arrows, 0.3)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(clusters))
	}
	// e and e2 must share a cluster.
	for _, c := range clusters {
		names := map[string]bool{}
		for _, a := range c {
			names[a.Name] = true
		}
		if names["e"] != names["e2"] {
			t.Fatal("parallel arrows split across clusters")
		}
		if names["e"] && names["n"] {
			t.Fatal("orthogonal arrows merged")
		}
	}
}

func TestClusterArrowsWrapAround(t *testing.T) {
	// Angles ±179° are 2° apart across the wrap.
	a := Arrow{Name: "p", DX: math.Cos(math.Pi - 0.01), DY: math.Sin(math.Pi - 0.01)}
	b := Arrow{Name: "q", DX: math.Cos(-math.Pi + 0.01), DY: math.Sin(-math.Pi + 0.01)}
	clusters := ClusterArrows([]Arrow{a, b}, 0.1)
	if len(clusters) != 1 {
		t.Fatal("wrap-around angles not merged")
	}
}

func TestProjectionErrors(t *testing.T) {
	ds := syntheticDataset(8, 0.1, 13)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Projection("nope", "a1"); err == nil {
		t.Fatal("unknown observation accepted")
	}
	if _, err := res.Projection("A", "nope"); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestASCIIMapContainsLabels(t *testing.T) {
	ds := syntheticDataset(8, 0.1, 15)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 16}})
	if err != nil {
		t.Fatal(err)
	}
	m := res.ASCIIMap(70, 24)
	if !strings.Contains(m, "alienation") {
		t.Fatal("missing header")
	}
	if !strings.Contains(m, "*A") {
		t.Fatal("missing observation label")
	}
	if !strings.Contains(m, ">a1") && !strings.Contains(m, ">a2") {
		t.Fatal("missing arrow label")
	}
}

func TestSVGWellFormed(t *testing.T) {
	ds := syntheticDataset(8, 0.1, 17)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 18}})
	if err != nil {
		t.Fatal(err)
	}
	svg := res.SVG(640, 480)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	for _, p := range res.Points {
		if !strings.Contains(svg, ">"+p.Name+"<") {
			t.Fatalf("missing point label %q", p.Name)
		}
	}
	if strings.Count(svg, "<line") != len(res.Arrows) {
		t.Fatal("arrow count mismatch")
	}
}

func TestSVGEscapesNames(t *testing.T) {
	ds := syntheticDataset(6, 0.1, 19)
	ds.Observations[0] = `<&">`
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 20}})
	if err != nil {
		t.Fatal(err)
	}
	svg := res.SVG(0, 0)
	if strings.Contains(svg, `>`+`<&">`+`<`) {
		t.Fatal("unescaped XML metacharacters")
	}
	if !strings.Contains(svg, "&lt;&amp;&quot;&gt;") {
		t.Fatal("expected escaped label")
	}
}

func BenchmarkAnalyze15x12(b *testing.B) {
	ds := syntheticDataset(15, 0.2, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 22}}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReportContainsSections(t *testing.T) {
	ds := syntheticDataset(10, 0.1, 80)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 81}, PruneThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"points:", "arrows", "variable clusters"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	for _, obs := range ds.Observations {
		if !strings.Contains(rep, obs) {
			t.Fatalf("report missing observation %q", obs)
		}
	}
}

func TestShepardFromResult(t *testing.T) {
	ds := syntheticDataset(10, 0.1, 82)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 83}})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Shepard()
	if len(pts) != 45 {
		t.Fatalf("shepard pairs = %d, want 45", len(pts))
	}
	svg, err := res.ShepardSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatal("bad Shepard SVG")
	}
	// Degenerate result: no dissimilarities recorded.
	empty := &Result{}
	if empty.Shepard() != nil {
		t.Fatal("empty result should have no Shepard data")
	}
	if _, err := empty.ShepardSVG(); err == nil {
		t.Fatal("empty result rendered a Shepard diagram")
	}
}

func TestFitExtraVariable(t *testing.T) {
	ds := syntheticDataset(12, 0.1, 90)
	res, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 91}})
	if err != nil {
		t.Fatal(err)
	}
	// Refit an existing variable as "extra": its arrow must coincide
	// with the fitted one.
	vals := make([]float64, len(ds.Observations))
	for i := range ds.X {
		vals[i] = ds.X[i][0] // a1
	}
	extra, err := res.FitExtraVariable("a1-copy", vals)
	if err != nil {
		t.Fatal(err)
	}
	var orig Arrow
	for _, a := range res.Arrows {
		if a.Name == "a1" {
			orig = a
		}
	}
	if cos := ArrowCos(extra, orig); cos < 0.99 {
		t.Fatalf("refit arrow diverges: cos = %v", cos)
	}
	if math.Abs(extra.Corr-orig.Corr) > 0.01 {
		t.Fatalf("refit correlation %v vs %v", extra.Corr, orig.Corr)
	}
	if _, err := res.FitExtraVariable("bad", []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestFitExtraVariableConstantIsZeroArrow: a variable with one value
// across the map carries no direction, so its arrow must be the zero
// arrow on any configuration. A constant whose mean rounds away from
// it used to normalize to a column of equal nonzero scores, and the
// regression's rounding residue then fitted an arbitrary unit arrow.
func TestFitExtraVariableConstantIsZeroArrow(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(12)
		scale := math.Pow(10, float64(r.Intn(6))-2)
		res := &Result{}
		for i := 0; i < n; i++ {
			res.Points = append(res.Points, Point{X: (3*r.Norm() + 1) * scale, Y: (r.Norm() - 2) * scale})
		}
		c := math.Round(1000*r.Float64()) / 100
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = c
		}
		a, err := res.FitExtraVariable("const", vals)
		if err != nil {
			t.Fatal(err)
		}
		if a.DX != 0 || a.DY != 0 || a.Corr != 0 {
			t.Fatalf("trial %d: constant %v over %d points: arrow %+v, want the zero arrow", trial, c, n, a)
		}
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	ds := syntheticDataset(20, 0.1, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, ds, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeAffineInvariance(t *testing.T) {
	// Stage 1 z-normalizes every variable, so rescaling and shifting any
	// column must leave the whole analysis unchanged.
	ds := syntheticDataset(12, 0.15, 70)
	res1, err := AnalyzeContext(context.Background(), ds, Options{MDS: mds.Options{Seed: 71}})
	if err != nil {
		t.Fatal(err)
	}
	scaled := &Dataset{
		Observations: ds.Observations,
		Variables:    ds.Variables,
	}
	for _, row := range ds.X {
		nr := make([]float64, len(row))
		for j, v := range row {
			nr[j] = v*float64(3+j) + float64(10*j)
		}
		scaled.X = append(scaled.X, nr)
	}
	res2, err := AnalyzeContext(context.Background(), scaled, Options{MDS: mds.Options{Seed: 71}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Alienation-res2.Alienation) > 1e-9 {
		t.Fatalf("alienation changed under affine transform: %v vs %v",
			res1.Alienation, res2.Alienation)
	}
	for i := range res1.Points {
		if math.Abs(res1.Points[i].X-res2.Points[i].X) > 1e-6 ||
			math.Abs(res1.Points[i].Y-res2.Points[i].Y) > 1e-6 {
			t.Fatalf("point %s moved under affine transform", res1.Points[i].Name)
		}
	}
}
