package coplot

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the design-choice ablations called out in DESIGN.md. Each
// experiment benchmark regenerates the complete artifact (logs,
// statistics, Co-plot map) and reports the headline goodness-of-fit
// number as a custom metric, so `go test -bench=.` doubles as a
// reproduction run.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"coplot/internal/core"
	"coplot/internal/engine"
	"coplot/internal/experiments"
	"coplot/internal/fgn"
	"coplot/internal/mat"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/selfsim"
)

// benchCfg scales the experiments down enough for iteration while
// keeping all calibrations in tolerance.
func benchCfg() experiments.Config {
	return experiments.Config{Jobs: 4096, ModelJobs: 3000, PeriodJobs: 2048, Seed: 5}
}

func reportChecks(b *testing.B, checks []experiments.Check) {
	b.Helper()
	passed := 0
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	b.ReportMetric(float64(passed), "checks-passed")
	b.ReportMetric(float64(len(checks)), "checks-total")
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(context.Background(), experiments.NewEnv(benchCfg()))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportChecks(b, res.Checks)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), experiments.NewEnv(benchCfg()))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportChecks(b, res.Checks)
		}
	}
}

func benchFigure(b *testing.B, run func(context.Context, *experiments.Env) (*experiments.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := run(context.Background(), experiments.NewEnv(benchCfg()))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(fig.Analysis.Alienation, "alienation")
			b.ReportMetric(fig.Analysis.AvgCorr, "avg-corr")
			reportChecks(b, fig.Checks)
		}
	}
}

func BenchmarkFigure1(b *testing.B) { benchFigure(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B) { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }
func BenchmarkParams3(b *testing.B) { benchFigure(b, experiments.Params3) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(context.Background(), experiments.NewEnv(benchCfg()))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportChecks(b, res.Checks)
		}
	}
}

// Extension studies (DESIGN.md: load-scaling, moment-stability,
// parametric round trip, self-similar models, map stability).

func benchNamed(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		o, err := experiments.Run(context.Background(), name, benchCfg(), experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportChecks(b, o.Checks)
		}
	}
}

func BenchmarkPaperFigures(b *testing.B)      { benchNamed(b, "paper") }
func BenchmarkMomentStability(b *testing.B)   { benchNamed(b, "moments") }
func BenchmarkMapStability(b *testing.B)      { benchNamed(b, "stability") }
func BenchmarkLoadScaling(b *testing.B)       { benchNamed(b, "loadscale") }
func BenchmarkParametricModel(b *testing.B)   { benchNamed(b, "parametric") }
func BenchmarkSelfSimilarModels(b *testing.B) { benchNamed(b, "selfsim-models") }

// ---- Ablations -------------------------------------------------------

// ablationDataset builds a reproducible workload-shaped dataset for the
// MDS and distance ablations.
func ablationDataset() *Dataset {
	r := rng.New(99)
	n, p := 15, 9
	ds := &Dataset{}
	for j := 0; j < p; j++ {
		ds.Variables = append(ds.Variables, string(rune('a'+j)))
	}
	for i := 0; i < n; i++ {
		ds.Observations = append(ds.Observations, string(rune('A'+i)))
		u, v := r.Norm(), r.Norm()
		row := make([]float64, p)
		for j := range row {
			switch j % 3 {
			case 0:
				row[j] = u + 0.3*r.Norm()
			case 1:
				row[j] = v + 0.3*r.Norm()
			default:
				row[j] = -u + 0.3*r.Norm()
			}
		}
		ds.X = append(ds.X, row)
	}
	return ds
}

// benchMDSMethod measures one disparity method of the SSA solver and
// reports the alienation it achieves (DESIGN.md ablation: rank image vs
// monotone regression vs pure metric fitting).
func benchMDSMethod(b *testing.B, method mds.DisparityMethod) {
	b.Helper()
	ds := ablationDataset()
	z := core.Normalize(ds)
	d := core.CityBlockWith(z, nil)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := mds.SSAContext(context.Background(), d, mds.Options{Method: method, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Alienation
	}
	b.ReportMetric(last, "alienation")
}

func BenchmarkAblationMDSRankImage(b *testing.B) { benchMDSMethod(b, mds.RankImage) }
func BenchmarkAblationMDSMonotone(b *testing.B)  { benchMDSMethod(b, mds.Monotone) }
func BenchmarkAblationMDSMetric(b *testing.B)    { benchMDSMethod(b, mds.Metric) }

// BenchmarkAblationMDSClassicalOnly measures Torgerson scaling alone —
// the configuration SSA starts from — as the no-iteration baseline.
func BenchmarkAblationMDSClassicalOnly(b *testing.B) {
	ds := ablationDataset()
	d := core.CityBlockWith(core.Normalize(ds), nil)
	var last float64
	for i := 0; i < b.N; i++ {
		x, err := mds.Classical(d, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = mds.AlienationWith(d, x, nil)
	}
	b.ReportMetric(last, "alienation")
}

// Distance ablation: the paper's city-block choice versus Euclidean.
func benchDistance(b *testing.B, euclidean bool) {
	b.Helper()
	ds := ablationDataset()
	z := core.Normalize(ds)
	var last float64
	for i := 0; i < b.N; i++ {
		d := core.CityBlockWith(z, nil)
		if euclidean {
			// Rebuild with Euclidean distances.
			for r := 0; r < z.Rows; r++ {
				for c := r + 1; c < z.Rows; c++ {
					s := 0.0
					for k := 0; k < z.Cols; k++ {
						df := z.At(r, k) - z.At(c, k)
						s += df * df
					}
					d.Set(r, c, math.Sqrt(s))
					d.Set(c, r, math.Sqrt(s))
				}
			}
		}
		res, err := mds.SSAContext(context.Background(), d, mds.Options{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Alienation
	}
	b.ReportMetric(last, "alienation")
}

func BenchmarkAblationDistanceCityBlock(b *testing.B) { benchDistance(b, false) }
func BenchmarkAblationDistanceEuclidean(b *testing.B) { benchDistance(b, true) }

// fGn generator ablation: exact O(n²) Hosking versus O(n log n)
// Davies–Harte at the same length.
func BenchmarkAblationFGNHosking(b *testing.B) {
	r := rng.New(4)
	for i := 0; i < b.N; i++ {
		if _, err := fgn.Hosking(r, 0.8, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFGNDaviesHarte(b *testing.B) {
	r := rng.New(4)
	for i := 0; i < b.N; i++ {
		if _, err := fgn.DaviesHarte(r, 0.8, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3CI(b *testing.B) { benchNamed(b, "table3ci") }

// ---- Engine: serial vs parallel full suite ----------------------------

// benchRunAll regenerates every artifact (except the seed sweep) through
// the experiment engine at the given worker count. Comparing the two
// benchmarks shows the wall-clock effect of DAG-parallel execution with
// shared artifacts; outputs are byte-identical either way.
func benchRunAll(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		outs, err := experiments.RunAll(context.Background(), benchCfg(), experiments.RunOptions{Options: engine.Options{Jobs: jobs}})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(outs)), "artifacts")
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)    { benchRunAll(b, 1) }
func BenchmarkRunAllParallel4(b *testing.B) { benchRunAll(b, 4) }

// ---- Parallel kernels --------------------------------------------------

// The three kernels below run as jobs=1 / jobs=4 sub-benchmark pairs;
// cmd/benchjson parses this naming to compute per-kernel speedups and
// gate CI on regressions. Outputs are byte-identical across the pair —
// only wall-clock may differ.

// benchKernelJobs runs fn once per worker-budget variant.
func benchKernelJobs(b *testing.B, fn func(b *testing.B, budget *par.Budget)) {
	b.Helper()
	for _, jobs := range []int{1, 4} {
		budget := par.NewBudget(jobs)
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) { fn(b, budget) })
	}
}

// kernelMatrix builds a reproducible n×p data matrix large enough that
// the kernels' fan-outs dominate their setup cost.
func kernelMatrix(n, p int, seed uint64) *mat.Matrix {
	r := rng.New(seed)
	z := mat.New(n, p)
	for i := range z.Data {
		z.Data[i] = r.Norm()
	}
	return z
}

// BenchmarkSSAMultiStart measures the multi-start solver: classical
// scaling plus 7 random restarts (8 independent SMACOF runs), the
// fan-out the -jobs budget parallelizes.
func BenchmarkSSAMultiStart(b *testing.B) {
	d := core.CityBlockWith(kernelMatrix(40, 9, 17), nil)
	benchKernelJobs(b, func(b *testing.B, budget *par.Budget) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := mds.SSAContext(context.Background(), d, mds.Options{Seed: 3, Restarts: 7, Par: budget})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Alienation
		}
		b.ReportMetric(last, "alienation")
	})
}

// BenchmarkEstimateSet measures the Table 3 shape: the three-estimator
// triple fanned over a set of series.
func BenchmarkEstimateSet(b *testing.B) {
	series := make([][]float64, 12)
	for i := range series {
		h := 0.55 + 0.025*float64(i)
		x, err := fgn.DaviesHarte(rng.New(uint64(100+i)), h, 4096)
		if err != nil {
			b.Fatal(err)
		}
		series[i] = x
	}
	benchKernelJobs(b, func(b *testing.B, budget *par.Budget) {
		for i := 0; i < b.N; i++ {
			if _, err := selfsim.EstimateSet(context.Background(), budget, series); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCityBlock measures the blocked dissimilarity-matrix build on
// a matrix well past the row-blocking threshold.
func BenchmarkCityBlock(b *testing.B) {
	z := kernelMatrix(256, 32, 23)
	benchKernelJobs(b, func(b *testing.B, budget *par.Budget) {
		var sink float64
		for i := 0; i < b.N; i++ {
			d := core.CityBlockWith(z, budget)
			sink = d.At(0, 1)
		}
		_ = sink
	})
}

// ---- Scale tier --------------------------------------------------------

// The scale tier measures the corpus-sized path: 1000 synthetic
// observations, two orders of magnitude past the paper's 15. The
// BenchmarkScale* set runs under cmd/benchjson into the bench/scale
// baseline (CI job bench-scale); the committed numbers record the
// landmark-vs-full speedup that -landmarks buys at this size and pin
// the alienation agreement between the two paths. Run with
// `-benchtime 1x`: one full solve at n=1000 is minutes of CPU, which
// is exactly the cost the landmark variant is there to show avoided.

// scaleObservations is the scale tier's observation count.
const scaleObservations = 1000

// scaleLandmarks is the sample size the landmark variants embed
// exactly; the remaining observations are placed against it.
const scaleLandmarks = 50

// scaleDataset builds a reproducible n-observation dataset with the
// paper's variable count and the correlation structure real workload
// corpora have: every variable is a noisy mix of two latent factors
// per observation (isotropic noise would make any 2-D map — full or
// landmark — equally meaningless).
func scaleDataset(n, p int, seed uint64) *core.Dataset {
	r := rng.New(seed)
	ds := &core.Dataset{
		Observations: make([]string, n),
		Variables:    make([]string, p),
		X:            make([][]float64, n),
	}
	for j := 0; j < p; j++ {
		ds.Variables[j] = fmt.Sprintf("v%d", j)
	}
	for i := 0; i < n; i++ {
		ds.Observations[i] = fmt.Sprintf("o%d", i)
		l1, l2 := r.Norm()*3, r.Norm()
		row := make([]float64, p)
		for j := range row {
			w := float64(j+1) / float64(p)
			row[j] = w*l1 + (1-w)*l2 + 0.15*r.Norm()
		}
		ds.X[i] = row
	}
	return ds
}

// benchScaleAnalyze runs the full Co-plot pipeline at scale; landmarks
// = 0 is the exact pre-landmark solve the speedup is measured against.
func benchScaleAnalyze(b *testing.B, landmarks int) {
	ds := scaleDataset(scaleObservations, 9, 41)
	budget := par.NewBudget(4)
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := core.AnalyzeContext(context.Background(), ds, core.Options{
			MDS: mds.Options{Seed: 3, Par: budget, Landmarks: landmarks},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Alienation
	}
	b.ReportMetric(last, "alienation")
}

func BenchmarkScaleAnalyzeFull(b *testing.B)     { benchScaleAnalyze(b, 0) }
func BenchmarkScaleAnalyzeLandmark(b *testing.B) { benchScaleAnalyze(b, scaleLandmarks) }

// BenchmarkScaleAlienation measures the O(m log m) alienation kernel
// alone over the scale tier's ~500k pairs (the quadratic form would
// visit ~1.2e11 pair-of-pairs here). The jobs=1/jobs=4 pair exposes
// the blocked moment pass to the benchjson speedup gate.
func BenchmarkScaleAlienation(b *testing.B) {
	d := core.CityBlockWith(kernelMatrix(scaleObservations, 9, 41), nil)
	x := kernelMatrix(scaleObservations, 2, 42)
	benchKernelJobs(b, func(b *testing.B, budget *par.Budget) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = mds.AlienationWith(d, x, budget)
		}
		_ = sink
	})
}

// BenchmarkScaleSmacof pins the solver's allocation behavior: the
// iters=10 and iters=200 variants run the same SMACOF descent cut off
// at different iteration caps, and with the scratch buffers reused
// across iterations their allocs/op must match — an alloc count that
// grows with the cap means a per-iteration allocation crept back in.
func BenchmarkScaleSmacof(b *testing.B) {
	d := core.CityBlockWith(kernelMatrix(120, 9, 17), nil)
	for _, iters := range []int{10, 200} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := mds.SSAContext(context.Background(), d, mds.Options{
					Seed: 3, Restarts: -1, Method: mds.Monotone,
					Tol: 1e-300, MaxIter: iters,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
