package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"coplot/internal/core"
	"coplot/internal/models"
	"coplot/internal/parametric"
	"coplot/internal/rng"
	"coplot/internal/sites"
	"coplot/internal/stats"
	"coplot/internal/workload"
)

// ---- Moment stability (section 3) -------------------------------------

// MomentStabilityResult quantifies the paper's section-3 argument for
// order statistics: removing the 0.1% most extreme jobs shifts the mean
// and CV of a workload variable far more than it shifts the median and
// 90% interval.
type MomentStabilityResult struct {
	// Per-site relative changes (after/before − 1, absolute value).
	MeanShift, CVShift, MedianShift, IntervalShift map[string]float64
	Text                                           string
	Checks                                         []Check
}

// MomentStability regenerates the section-3 stability comparison over
// the ten production-site logs, using the inter-arrival variable (the
// generated runtimes carry an administrative cap, as real logs do, which
// already blunts their tail; arrivals are uncapped).
func MomentStability(ctx context.Context, env *Env) (*MomentStabilityResult, error) {
	logs, err := env.siteLogs(ctx)
	if err != nil {
		return nil, err
	}
	res := &MomentStabilityResult{
		MeanShift:     map[string]float64{},
		CVShift:       map[string]float64{},
		MedianShift:   map[string]float64{},
		IntervalShift: map[string]float64{},
	}
	var b strings.Builder
	b.WriteString("Moment stability: relative change after removing the top 0.1% inter-arrival gaps\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s\n", "site", "mean", "CV", "median", "interval")
	for _, name := range sites.Table1Names {
		rts := logs[name].InterArrivals()
		sort.Float64s(rts)
		cut := len(rts) - len(rts)/1000 - 1
		trimmed := rts[:cut]

		rel := func(f func([]float64) float64) float64 {
			before := f(rts)
			after := f(trimmed)
			if before == 0 {
				return 0
			}
			return math.Abs(after/before - 1)
		}
		cv := func(xs []float64) float64 { return stats.StdDev(xs) / stats.Mean(xs) }
		interval := func(xs []float64) float64 { return stats.Interval90(xs) }
		res.MeanShift[name] = rel(stats.Mean)
		res.CVShift[name] = rel(cv)
		res.MedianShift[name] = rel(stats.Median)
		res.IntervalShift[name] = rel(interval)
		fmt.Fprintf(&b, "%-8s %7.1f%% %7.1f%% %7.2f%% %7.2f%%\n", name,
			res.MeanShift[name]*100, res.CVShift[name]*100,
			res.MedianShift[name]*100, res.IntervalShift[name]*100)
	}
	avg := func(m map[string]float64) float64 {
		s := 0.0
		for _, v := range m {
			s += v
		}
		return s / float64(len(m))
	}
	meanAvg, cvAvg := avg(res.MeanShift), avg(res.CVShift)
	medAvg, ivAvg := avg(res.MedianShift), avg(res.IntervalShift)
	res.Checks = append(res.Checks,
		Check{
			Name:     "moments unstable under trimming",
			Paper:    "removing 0.1% of jobs can change the average by 5% and the CV by 40%",
			Measured: fmt.Sprintf("avg shifts: mean %.1f%%, CV %.1f%%", meanAvg*100, cvAvg*100),
			Pass:     meanAvg > 0.02 && cvAvg > 0.10,
		},
		Check{
			Name:     "order statistics stable under trimming",
			Paper:    "medians and intervals barely move (the reason the paper uses them)",
			Measured: fmt.Sprintf("avg shifts: median %.2f%%, interval %.2f%%", medAvg*100, ivAvg*100),
			Pass:     medAvg < meanAvg/3 && ivAvg < cvAvg/3,
		},
	)
	b.WriteString("\n" + renderChecks(res.Checks))
	res.Text = b.String()
	return res, nil
}

// ---- Map stability (sections 4 and 6) ---------------------------------

// MapStabilityResult reports how the Figure-1 variable clusters behave
// under leave-one-out re-analysis — the paper's observation that the
// runtime and parallelism clusters are stable while the third cluster
// (Cm with Ii) "sometimes melts into the other two".
type MapStabilityResult struct {
	// StablePairs counts, per variable pair, in how many of the
	// leave-one-out runs the pair stayed within the cluster angle.
	StablePairs map[string]int
	// MinCos is the worst (smallest) cosine observed between the pair's
	// arrows across all runs — the quantitative fragility measure.
	MinCos map[string]float64
	Runs   int
	Text   string
	Checks []Check
}

// MapStability runs the Figure-1 analysis once per left-out observation.
func MapStability(ctx context.Context, env *Env) (*MapStabilityResult, error) {
	cfg := env.Cfg
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	full, err := datasetFromTable(t1.Table, fig1Vars)
	if err != nil {
		return nil, err
	}
	pairs := map[string][2]string{
		"Rm-Ri": {workload.VarRuntimeMedian, workload.VarRuntimeInterval},
		"Nm-Ni": {workload.VarNormProcsMedian, workload.VarNormProcsIntvl},
		"Cm-Ii": {workload.VarWorkMedian, workload.VarInterArrInterval},
	}
	res := &MapStabilityResult{StablePairs: map[string]int{}, MinCos: map[string]float64{}}
	for label := range pairs {
		res.MinCos[label] = 1
	}
	const clusterCos = 0.7
	for _, leftOut := range full.Observations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds := full.DropObservations(leftOut)
		an, err := core.AnalyzeContext(ctx, ds, core.Options{MDS: cfg.mdsOptions()})
		if err != nil {
			return nil, err
		}
		res.Runs++
		byName := map[string]core.Arrow{}
		for _, a := range an.Arrows {
			byName[a.Name] = a
		}
		for label, p := range pairs {
			c := core.ArrowCos(byName[p[0]], byName[p[1]])
			if c >= clusterCos {
				res.StablePairs[label]++
			}
			if c < res.MinCos[label] {
				res.MinCos[label] = c
			}
		}
	}
	var b strings.Builder
	b.WriteString("Cluster stability under leave-one-out re-analysis\n")
	for _, label := range []string{"Rm-Ri", "Nm-Ni", "Cm-Ii"} {
		fmt.Fprintf(&b, "  %-6s together in %d/%d runs, worst cosine %.2f\n",
			label, res.StablePairs[label], res.Runs, res.MinCos[label])
	}
	stableCore := res.StablePairs["Rm-Ri"] >= res.Runs-1
	weakest := 1.0
	weakestPair := ""
	for label, c := range res.MinCos {
		if c < weakest {
			weakest, weakestPair = c, label
		}
	}
	res.Checks = append(res.Checks,
		Check{
			Name:     "runtime cluster stays stable",
			Paper:    "the runtime median+interval cluster appears in every analysis",
			Measured: fmt.Sprintf("Rm-Ri together in %d/%d runs (worst cosine %.2f)", res.StablePairs["Rm-Ri"], res.Runs, res.MinCos["Rm-Ri"]),
			Pass:     stableCore,
		},
		Check{
			Name:  "some cluster pairing weakens under LOO",
			Paper: "cluster membership is not fully stable — 'in some of the other runs the third cluster disappears'; only stable findings should be reported",
			Measured: fmt.Sprintf("weakest pairing %s (worst cosine %.2f); Cm-Ii %.2f, Rm-Ri %.2f, Nm-Ni %.2f",
				weakestPair, weakest, res.MinCos["Cm-Ii"], res.MinCos["Rm-Ri"], res.MinCos["Nm-Ni"]),
			Pass: weakest < 0.9,
		},
	)
	b.WriteString("\n" + renderChecks(res.Checks))
	res.Text = b.String()
	return res, nil
}

// ---- Parametric model round trip (section 8) ---------------------------

// ParametricRoundTrip feeds each production observation's three
// section-8 parameters into the parametric model, maps the generated
// clones together with the originals, and checks that clones land near
// their sites — the validation the paper's proposed model would need.
func ParametricRoundTrip(ctx context.Context, env *Env) (*FigureResult, error) {
	cfg := env.Cfg
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	prodDs, err := datasetFromTable(t1.Table, fig4Vars)
	if err != nil {
		return nil, err
	}
	ds := &core.Dataset{
		Observations: append([]string(nil), prodDs.Observations...),
		Variables:    append([]string(nil), fig4Vars...),
		X:            append([][]float64(nil), prodDs.X...),
	}
	// Clone a representative subset (one per machine family).
	cloneOf := map[string]string{}
	for _, name := range []string{"CTC", "LANL", "NASA", "SDSC"} {
		params, err := parametric.ParamsOf(name)
		if err != nil {
			return nil, err
		}
		mach := sites.MachineFor(name)
		model, err := parametric.New(mach.Procs)
		if err != nil {
			return nil, err
		}
		cloneName := name + "*"
		log, err := model.Generate(cloneName, params, cfg.Jobs/2, cfg.Seed+77)
		if err != nil {
			return nil, err
		}
		v, err := workload.Compute(cloneName, log, mach)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(fig4Vars))
		for j, code := range fig4Vars {
			row[j] = v.Get(code)
		}
		ds.Observations = append(ds.Observations, cloneName)
		ds.X = append(ds.X, row)
		cloneOf[cloneName] = name
	}
	res, err := core.AnalyzeContext(ctx, ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}

	// Each clone's nearest production observation should be its source
	// site (or at worst the site's own sub-logs).
	hits := 0
	details := []string{}
	family := func(s string) string { return strings.TrimRight(s, "ib") }
	for clone, site := range cloneOf {
		cp, _ := pointByName(res, clone)
		best, bestD := "", math.Inf(1)
		for _, name := range sitesNames() {
			p, ok := pointByName(res, name)
			if !ok {
				continue
			}
			if d := pointDist(cp, p); d < bestD {
				best, bestD = name, d
			}
		}
		details = append(details, fmt.Sprintf("%s→%s", clone, best))
		if family(best) == family(site) {
			hits++
		}
	}
	sort.Strings(details)
	fig.Checks = append(fig.Checks, Check{
		Name:     "parametric clones land near their sites",
		Paper:    "a 3-parameter model should reproduce each system (section 8 proposal)",
		Measured: strings.Join(details, " "),
		Pass:     hits >= 3,
	})
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

// ---- Self-similar models (section 9) -----------------------------------

// SelfSimilarModels extends the Table-3 analysis with the SS-wrapped
// models: injecting long-range dependence moves the models to the
// production side of the self-similarity map without changing their
// marginal statistics — the "new model" section 9 calls for.
func SelfSimilarModels(ctx context.Context, env *Env) (*Output, error) {
	cfg := env.Cfg
	var b strings.Builder
	b.WriteString("Self-similarity injection (section 9 extension)\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "model",
		"H(arr)", "H(arr,SS)", "H(rt)", "H(rt,SS)")
	var checks []Check
	improvedArr, improvedRT := 0, 0
	names := []string{"Feitelson96", "Downey", "Jann", "Lublin"}
	for i, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, _ := models.Lookup(name)
		base := spec.New(spec.Fit.Procs)
		seed := cfg.Seed + uint64(i+1)*131
		plain := base.Generate(rng.New(seed), cfg.ModelJobs)
		wrapped := models.NewSelfSimilar(base, 0.85).Generate(rng.New(seed), cfg.ModelJobs)
		hP := estimateWorkload(plain, cfg.Par)
		hW := estimateWorkload(wrapped, cfg.Par)
		// Columns: 10 = vi (variance-time, inter-arrival), 4 = vr.
		fmt.Fprintf(&b, "%-16s %10.2f %10.2f %10.2f %10.2f\n", name,
			hP[10], hW[10], hP[4], hW[4])
		if hW[10] > hP[10]+0.08 {
			improvedArr++
		}
		if hW[4] > hP[4]+0.08 {
			improvedRT++
		}
	}
	checks = append(checks, Check{
		Name:     "wrapping injects self-similarity",
		Paper:    "section 9: a model exhibiting self-similarity is a near-future requirement",
		Measured: fmt.Sprintf("arrival H raised for %d/%d models, runtime H for %d/%d", improvedArr, len(names), improvedRT, len(names)),
		Pass:     improvedArr >= 3 && improvedRT >= 3,
	})
	b.WriteString("\n" + renderChecks(checks))
	return &Output{Name: "selfsim-models", Text: b.String(), Checks: checks}, nil
}

// ---- Load scaling (section 8, statement 3) ------------------------------

// LoadScalingStudy is defined in loadscaling.go; see there.
