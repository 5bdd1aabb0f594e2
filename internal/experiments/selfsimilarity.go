package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"coplot/internal/core"
	"coplot/internal/engine"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/selfsim"
	"coplot/internal/sites"
	"coplot/internal/swf"
)

// Table3Result holds the Hurst-estimate matrix of Table 3: for each of
// the fifteen workloads (ten production, five models), three estimators
// applied to four series.
type Table3Result struct {
	// Workloads in row order: the ten sites then the five models.
	Workloads []string
	// Estimators in Table 3 column order: rp vp pp rr vr pr rc vc pc
	// ri vi pi (R/S, variance-time, periodogram × procs, runtime, CPU
	// work, inter-arrival).
	Estimators []string
	// H[workload][estimator] is the estimate (NaN when degenerate).
	H      [][]float64
	Text   string
	Checks []Check
}

// Table3Estimators lists the twelve estimator columns in paper order.
var Table3Estimators = []string{
	"rp", "vp", "pp", // used processors
	"rr", "vr", "pr", // runtime
	"rc", "vc", "pc", // total CPU time
	"ri", "vi", "pi", // inter-arrival time
}

// estimateWorkload computes the twelve estimates of one log, fanning
// the four series over the worker budget (nil = serial).
func estimateWorkload(log *swf.Log, b *par.Budget) []float64 {
	ser := selfsim.SeriesFromLog(log)
	ordered := make([][]float64, len(selfsim.SeriesNames))
	for i, name := range selfsim.SeriesNames {
		ordered[i] = ser[name]
	}
	ests, _ := selfsim.EstimateSet(context.Background(), b, ordered)
	out := make([]float64, 0, 12)
	for _, e := range ests {
		out = append(out, e.RS, e.VT, e.Per)
	}
	return out
}

// Table3 regenerates the paper's Table 3. The Hurst matrix is memoized
// in the environment; Figure 5 reuses it instead of re-estimating.
func Table3(ctx context.Context, env *Env) (*Table3Result, error) {
	return engine.Memo(env.Store, "artifact:table3", func() (*Table3Result, error) {
		return table3Compute(ctx, env)
	})
}

func table3Compute(ctx context.Context, env *Env) (*Table3Result, error) {
	siteLogs, err := env.siteLogs(ctx)
	if err != nil {
		return nil, err
	}
	modelLogs, modelNames, err := ModelLogs(ctx, env)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Estimators: Table3Estimators}
	logs := make([]*swf.Log, 0, len(sites.Table1Names)+len(modelNames))
	for _, name := range sites.Table1Names {
		res.Workloads = append(res.Workloads, name)
		logs = append(logs, siteLogs[name])
	}
	for _, name := range modelNames {
		res.Workloads = append(res.Workloads, name)
		logs = append(logs, modelLogs[name])
	}

	// Fan the whole 15×4 grid of Table 3 series over the kernel budget:
	// series extraction per workload, then the estimator triple per
	// series. Estimates come back in input order, so the rows assemble
	// identically at any worker count.
	nSeries := len(selfsim.SeriesNames)
	perLog, err := par.Map(ctx, env.Cfg.Par, len(logs), func(i int) (map[string][]float64, error) {
		return selfsim.SeriesFromLog(logs[i]), nil
	})
	if err != nil {
		return nil, err
	}
	flat := make([][]float64, 0, len(logs)*nSeries)
	for _, ser := range perLog {
		for _, name := range selfsim.SeriesNames {
			flat = append(flat, ser[name])
		}
	}
	ests, err := selfsim.EstimateSet(ctx, env.Cfg.Par, flat)
	if err != nil {
		return nil, err
	}
	for w := range logs {
		row := make([]float64, 0, 12)
		for s := 0; s < nSeries; s++ {
			e := ests[w*nSeries+s]
			row = append(row, e.RS, e.VT, e.Per)
		}
		res.H = append(res.H, row)
	}
	res.Text = formatTable("Table 3: estimations of self-similarity (regenerated)",
		res.Estimators, res.Workloads, func(row, col int) string {
			return fmt.Sprintf("%.2f", res.H[row][col])
		})

	// The paper's headline: production workloads are self-similar
	// (H > 0.5), the synthetic models are not (H ≈ 0.5). Compare mean
	// estimates across the two groups.
	prodMean, prodCnt := 0.0, 0
	modelMean, modelCnt := 0.0, 0
	for i, name := range res.Workloads {
		isModel := i >= len(sites.Table1Names)
		for _, h := range res.H[i] {
			if math.IsNaN(h) {
				continue
			}
			if isModel {
				modelMean += h
				modelCnt++
			} else {
				prodMean += h
				prodCnt++
			}
		}
		_ = name
	}
	prodMean /= float64(prodCnt)
	modelMean /= float64(modelCnt)
	res.Checks = append(res.Checks,
		Check{
			Name:     "table3 production self-similar",
			Paper:    "most production workloads have H well above 0.5",
			Measured: fmt.Sprintf("mean production H = %.2f", prodMean),
			Pass:     prodMean > 0.6,
		},
		Check{
			Name:     "table3 models not self-similar",
			Paper:    "synthetic models sit near H = 0.5",
			Measured: fmt.Sprintf("mean model H = %.2f", modelMean),
			Pass:     modelMean < prodMean-0.05 && modelMean < 0.63,
		},
	)
	// NASA is the least self-similar production log.
	nasaMean := rowMean(res, "NASA")
	others := 0.0
	cnt := 0
	for _, n := range sites.Table1Names {
		if n == "NASA" {
			continue
		}
		others += rowMean(res, n)
		cnt++
	}
	others /= float64(cnt)
	res.Checks = append(res.Checks, Check{
		Name:     "table3 NASA least self-similar site",
		Paper:    "all production workloads except NASA show self-similarity",
		Measured: fmt.Sprintf("NASA mean H %.2f vs other sites %.2f", nasaMean, others),
		Pass:     nasaMean < others,
	})
	res.Text += "\n" + renderChecks(res.Checks)
	return res, nil
}

func rowMean(res *Table3Result, name string) float64 {
	for i, n := range res.Workloads {
		if n != name {
			continue
		}
		s, c := 0.0, 0
		for _, h := range res.H[i] {
			if !math.IsNaN(h) {
				s += h
				c++
			}
		}
		return s / float64(c)
	}
	return math.NaN()
}

// fig5Estimators are the nine estimator columns kept in Figure 5 (the
// paper removed rp, rc and pc for low correlations).
var fig5Estimators = []string{"vp", "pp", "rr", "vr", "pr", "vc", "ri", "vi", "pi"}

// Figure5 regenerates the Co-plot of the self-similarity estimates.
func Figure5(ctx context.Context, env *Env) (*FigureResult, error) {
	t3, err := Table3(ctx, env)
	if err != nil {
		return nil, err
	}
	return figure5From(env.Cfg, t3)
}

func figure5From(cfg Config, t3 *Table3Result) (*FigureResult, error) {
	colIdx := map[string]int{}
	for j, e := range t3.Estimators {
		colIdx[e] = j
	}
	ds := &core.Dataset{Variables: append([]string(nil), fig5Estimators...)}
	for i, w := range t3.Workloads {
		row := make([]float64, len(fig5Estimators))
		usable := true
		for k, e := range fig5Estimators {
			v := t3.H[i][colIdx[e]]
			if math.IsNaN(v) {
				usable = false
				break
			}
			row[k] = v
		}
		if !usable {
			continue
		}
		ds.Observations = append(ds.Observations, w)
		ds.X = append(ds.X, row)
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}

	// The paper's conclusion holds if every arrow points toward the
	// production side: the mean projection of production observations on
	// the average arrow direction exceeds that of the models.
	var ax, ay float64
	for _, a := range res.Arrows {
		ax += a.DX
		ay += a.DY
	}
	norm := math.Hypot(ax, ay)
	if norm > 0 {
		ax /= norm
		ay /= norm
	}
	siteSet := map[string]bool{}
	for _, n := range sitesNames() {
		siteSet[n] = true
	}
	var prodProj, modelProj float64
	var prodN, modelN int
	for _, p := range res.Points {
		proj := p.X*ax + p.Y*ay
		if siteSet[p.Name] {
			prodProj += proj
			prodN++
		} else {
			modelProj += proj
			modelN++
		}
	}
	prodProj /= float64(prodN)
	modelProj /= float64(modelN)
	fig.Checks = append(fig.Checks,
		Check{
			Name:     "fig5 production/models separation",
			Paper:    "all arrows point where the production workloads are",
			Measured: fmt.Sprintf("mean projection: production %.2f, models %.2f", prodProj, modelProj),
			Pass:     prodProj > modelProj,
		},
		Check{
			Name:     "fig5 goodness of fit",
			Paper:    "coherent 2-D picture after removing 3 estimators",
			Measured: fmt.Sprintf("alienation %.3f avg corr %.2f", res.Alienation, res.AvgCorr),
			Pass:     res.Alienation < 0.25,
		},
	)
	// Similar machines sit close: CTC and KTH (both SP2 + EASY).
	ctc, ok1 := pointByName(res, "CTC")
	kth, ok2 := pointByName(res, "KTH")
	if ok1 && ok2 {
		var all []float64
		for i := range res.Points {
			for j := i + 1; j < len(res.Points); j++ {
				all = append(all, pointDist(res.Points[i], res.Points[j]))
			}
		}
		mean := 0.0
		for _, d := range all {
			mean += d
		}
		mean /= float64(len(all))
		d := pointDist(ctc, kth)
		fig.Checks = append(fig.Checks, Check{
			Name:     "fig5 similar machines neighbors",
			Paper:    "CTC and KTH (SP2+EASY) are very close to one another",
			Measured: fmt.Sprintf("d(CTC,KTH) %.2f vs mean pairwise %.2f", d, mean),
			Pass:     d < mean,
		})
	}
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

// Table3CI extends Table 3 with the missing confidence intervals: the
// paper remarks that its three estimators "are only approximations and
// do not give confidence intervals to the value of the Hurst parameter".
// Moving-block bootstrap intervals for the arrival-series variance-time
// estimate of one production site and one synthetic model show the
// separation is statistically meaningful, not estimator noise.
func Table3CI(ctx context.Context, env *Env) (*Output, error) {
	cfg := env.Cfg
	// SDSC shows the strongest arrival LRD. Per-spec generation is a pure
	// function of the seed, so the shared sitelogs artifact carries the
	// same log the dedicated sites.Spec.Generate call used to produce.
	logs, err := env.siteLogs(ctx)
	if err != nil {
		return nil, err
	}
	siteLog := logs["SDSC"]
	modelLogs, _, err := ModelLogs(ctx, env)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed + 313)
	interval := func(log *swf.Log) (h, lo, hi float64, err error) {
		series := selfsim.SeriesFromLog(log)[selfsim.SeriesInterArrival]
		h, err = selfsim.VarianceTime(series)
		if err != nil {
			return 0, 0, 0, err
		}
		lo, hi, err = selfsim.BootstrapCI(r, series, selfsim.VarianceTime, 0, 60, 0.1)
		return h, lo, hi, err
	}
	hSite, loSite, hiSite, err := interval(siteLog)
	if err != nil {
		return nil, err
	}
	hModel, loModel, hiModel, err := interval(modelLogs["Lublin"])
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Bootstrap 90% confidence intervals for the arrival-series Hurst estimate\n")
	fmt.Fprintf(&b, "  %-12s H=%.2f  CI [%.2f, %.2f]\n", "SDSC", hSite, loSite, hiSite)
	fmt.Fprintf(&b, "  %-12s H=%.2f  CI [%.2f, %.2f]\n", "Lublin", hModel, loModel, hiModel)
	checks := []Check{{
		Name:     "table3 separation beyond estimator noise",
		Paper:    "the estimators give no confidence intervals (appendix caveat); bootstrap closes the gap",
		Measured: fmt.Sprintf("SDSC CI [%.2f,%.2f] vs Lublin CI [%.2f,%.2f]", loSite, hiSite, loModel, hiModel),
		// Block resampling deflates LRD estimates, so compare the site's
		// *point* estimate against the model's upper bound.
		Pass: hSite > hiModel && loSite > loModel,
	}}
	b.WriteString("\n" + renderChecks(checks))
	return &Output{Name: "table3ci", Text: b.String(), Checks: checks}, nil
}
