package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"coplot/internal/core"
	"coplot/internal/engine"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// FigureResult is a regenerated Co-plot figure.
type FigureResult struct {
	Analysis *core.Result
	Dataset  *core.Dataset
	Text     string
	SVG      string
	Checks   []Check
}

// datasetFromTable converts a workload table restricted to codes into a
// Co-plot dataset.
func datasetFromTable(tab *workload.Table, codes []string) (*core.Dataset, error) {
	ds := &core.Dataset{
		Observations: append([]string(nil), tab.Observations...),
		Variables:    append([]string(nil), codes...),
	}
	for range tab.Observations {
		ds.X = append(ds.X, make([]float64, len(codes)))
	}
	for j, code := range codes {
		col, err := tab.Column(code)
		if err != nil {
			return nil, err
		}
		for i := range col {
			ds.X[i][j] = col[i]
		}
	}
	return ds, nil
}

func pointByName(res *core.Result, name string) (core.Point, bool) {
	for _, p := range res.Points {
		if p.Name == name {
			return p, true
		}
	}
	return core.Point{}, false
}

func pointDist(a, b core.Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// centroidDistances returns each observation's distance from the center
// of gravity (the origin, since configurations are centered), sorted
// descending.
func centroidDistances(res *core.Result) []struct {
	Name string
	D    float64
} {
	out := make([]struct {
		Name string
		D    float64
	}, len(res.Points))
	for i, p := range res.Points {
		out[i].Name = p.Name
		out[i].D = math.Hypot(p.X, p.Y)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].D > out[b].D })
	return out
}

// fig1Vars are the twelve variables charted in Figure 1 (the paper
// removed MP, SF, U, E, C for low correlations and CL, AL from the final
// map).
var fig1Vars = []string{
	workload.VarRuntimeLoad,
	workload.VarRuntimeMedian, workload.VarRuntimeInterval,
	workload.VarNormProcsMedian, workload.VarNormProcsIntvl,
	workload.VarWorkMedian, workload.VarWorkInterval,
	workload.VarInterArrMedian, workload.VarInterArrInterval,
}

// Figure1 regenerates the Co-plot of all ten production workloads.
func Figure1(ctx context.Context, env *Env) (*FigureResult, error) {
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	return figure1From(env.Cfg, t1)
}

func figure1From(cfg Config, t1 *TableResult) (*FigureResult, error) {
	ds, err := datasetFromTable(t1.Table, fig1Vars)
	if err != nil {
		return nil, err
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}
	fig.Checks = append(fig.Checks,
		Check{
			Name:     "fig1 alienation",
			Paper:    "0.07 (below 0.15 is good)",
			Measured: fmt.Sprintf("%.3f", res.Alienation),
			Pass:     res.Alienation < 0.15,
		},
		Check{
			Name:     "fig1 avg variable correlation",
			Paper:    "0.88 (min 0.83)",
			Measured: fmt.Sprintf("avg %.2f min %.2f", res.AvgCorr, res.MinCorr),
			Pass:     res.AvgCorr > 0.75,
		},
	)
	// Variable clusters: parallelism pair and runtime pair must each be
	// coherent, and point in roughly opposite directions (the negative
	// correlation between clusters 1 and 4).
	byName := map[string]core.Arrow{}
	for _, a := range res.Arrows {
		byName[a.Name] = a
	}
	parCos := core.ArrowCos(byName[workload.VarNormProcsMedian], byName[workload.VarNormProcsIntvl])
	rtCos := core.ArrowCos(byName[workload.VarRuntimeMedian], byName[workload.VarRuntimeInterval])
	oppCos := core.ArrowCos(byName[workload.VarNormProcsMedian], byName[workload.VarRuntimeMedian])
	fig.Checks = append(fig.Checks,
		Check{
			Name:     "fig1 cluster: parallelism median+interval",
			Paper:    "Nm and Ni form cluster 1",
			Measured: fmt.Sprintf("cos(Nm,Ni) = %.2f", parCos),
			Pass:     parCos > 0.6,
		},
		Check{
			Name:     "fig1 cluster: runtime median+interval",
			Paper:    "Rm and Ri form cluster 4",
			Measured: fmt.Sprintf("cos(Rm,Ri) = %.2f", rtCos),
			Pass:     rtCos > 0.6,
		},
		Check{
			Name:     "fig1 parallelism vs runtime clusters",
			Paper:    "strong negative correlation between clusters 1 and 4",
			Measured: fmt.Sprintf("cos(Nm,Rm) = %.2f", oppCos),
			Pass:     oppCos < -0.2,
		},
	)
	// Outliers: LANLb and SDSCb stretch the map.
	far := centroidDistances(res)
	topTwo := map[string]bool{far[0].Name: true, far[1].Name: true, far[2].Name: true}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig1 outliers",
		Paper:    "LANLb and SDSCb are outliers",
		Measured: fmt.Sprintf("farthest: %s %.2f, %s %.2f, %s %.2f", far[0].Name, far[0].D, far[1].Name, far[1].D, far[2].Name, far[2].D),
		Pass:     topTwo["LANLb"] && topTwo["SDSCb"],
	})
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

// fig2Vars swap normalized parallelism for the raw one (section 5).
var fig2Vars = []string{
	workload.VarRuntimeLoad,
	workload.VarRuntimeMedian, workload.VarRuntimeInterval,
	workload.VarProcsMedian, workload.VarProcsInterval,
	workload.VarWorkMedian, workload.VarWorkInterval,
	workload.VarInterArrMedian, workload.VarInterArrInterval,
}

// Figure2 regenerates the Co-plot without the two batch outliers.
func Figure2(ctx context.Context, env *Env) (*FigureResult, error) {
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	return figure2From(env.Cfg, t1)
}

func figure2From(cfg Config, t1 *TableResult) (*FigureResult, error) {
	full, err := datasetFromTable(t1.Table, fig2Vars)
	if err != nil {
		return nil, err
	}
	ds := full.DropObservations("LANLb", "SDSCb")
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig2 alienation",
		Paper:    "0.01",
		Measured: fmt.Sprintf("%.3f", res.Alienation),
		Pass:     res.Alienation < 0.15,
	})
	// The interactive workloads plus NASA form the only natural
	// observation cluster: their mutual distances must sit well below
	// the map's average pairwise distance.
	li, ok1 := pointByName(res, "LANLi")
	si, ok2 := pointByName(res, "SDSCi")
	na, ok3 := pointByName(res, "NASA")
	if !(ok1 && ok2 && ok3) {
		return nil, fmt.Errorf("experiments: interactive observations missing from figure 2")
	}
	clusterMax := math.Max(pointDist(li, si), math.Max(pointDist(li, na), pointDist(si, na)))
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
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig2 interactive cluster",
		Paper:    "LANLi, SDSCi and NASA form the only observation cluster",
		Measured: fmt.Sprintf("cluster diameter %.2f vs mean pairwise %.2f", clusterMax, mean),
		Pass:     clusterMax < mean,
	})
	// Interactive workloads are below average on all well-fitting
	// variables: projections on every arrow are negative.
	below := 0
	total := 0
	for _, obs := range []string{"LANLi", "SDSCi"} {
		for _, a := range res.Arrows {
			if a.Corr < 0.7 {
				continue
			}
			p, err := res.Projection(obs, a.Name)
			if err == nil {
				total++
				if p < 0 {
					below++
				}
			}
		}
	}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig2 interactive below average",
		Paper:    "interactive jobs way below average on all variables",
		Measured: fmt.Sprintf("%d of %d projections negative", below, total),
		Pass:     float64(below) >= 0.8*float64(total),
	})
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

// fig3Vars drop the runtime load and inter-arrival interval (removed for
// low correlations in section 6).
var fig3Vars = []string{
	workload.VarRuntimeMedian, workload.VarRuntimeInterval,
	workload.VarNormProcsMedian, workload.VarNormProcsIntvl,
	workload.VarWorkMedian, workload.VarWorkInterval,
	workload.VarInterArrMedian,
}

// Figure3 regenerates the over-time Co-plot: the ten Table 1
// observations plus the eight half-year periods.
func Figure3(ctx context.Context, env *Env) (*FigureResult, error) {
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	t2, err := Table2(ctx, env)
	if err != nil {
		return nil, err
	}
	return figure3From(env.Cfg, t1, t2)
}

func figure3From(cfg Config, t1, t2 *TableResult) (*FigureResult, error) {
	ds1, err := datasetFromTable(t1.Table, fig3Vars)
	if err != nil {
		return nil, err
	}
	ds2, err := datasetFromTable(t2.Table, fig3Vars)
	if err != nil {
		return nil, err
	}
	ds := &core.Dataset{
		Observations: append(append([]string(nil), ds1.Observations...), ds2.Observations...),
		Variables:    ds1.Variables,
		X:            append(append([][]float64(nil), ds1.X...), ds2.X...),
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig3 alienation",
		Paper:    "map of 18 observations remains readable",
		Measured: fmt.Sprintf("%.3f", res.Alienation),
		Pass:     res.Alienation < 0.2,
	})
	// SDSC periods cluster; LANL's L3 is an outlier versus L1/L2.
	sPts := make([]core.Point, 0, 4)
	for _, n := range []string{"S1", "S2", "S3", "S4"} {
		p, ok := pointByName(res, n)
		if !ok {
			return nil, fmt.Errorf("experiments: %s missing from figure 3", n)
		}
		sPts = append(sPts, p)
	}
	var sMax float64
	for i := range sPts {
		for j := i + 1; j < len(sPts); j++ {
			sMax = math.Max(sMax, pointDist(sPts[i], sPts[j]))
		}
	}
	l1, _ := pointByName(res, "L1")
	l2, _ := pointByName(res, "L2")
	l3, _ := pointByName(res, "L3")
	lanlStable := pointDist(l1, l2)
	lanlBreak := math.Min(pointDist(l3, l1), pointDist(l3, l2))
	var all []float64
	for i := range res.Points {
		for j := i + 1; j < len(res.Points); j++ {
			all = append(all, pointDist(res.Points[i], res.Points[j]))
		}
	}
	meanD := 0.0
	for _, d := range all {
		meanD += d
	}
	meanD /= float64(len(all))
	fig.Checks = append(fig.Checks,
		Check{
			Name:     "fig3 SDSC periods clustered",
			Paper:    "SDSC jobs rather clustered (S4 slightly apart)",
			Measured: fmt.Sprintf("S-cluster diameter %.2f vs mean pairwise %.2f", sMax, meanD),
			Pass:     sMax < meanD,
		},
		Check{
			Name:     "fig3 LANL regime break",
			Paper:    "first year stable (L1,L2); L3 a definite outlier",
			Measured: fmt.Sprintf("d(L1,L2) %.2f vs d(L3, first year) %.2f", lanlStable, lanlBreak),
			Pass:     lanlBreak > 2*lanlStable,
		},
	)
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

// fig4Vars are the eight variables shared by models and logs: median and
// interval of runtime, normalized parallelism, implied CPU work, and
// inter-arrival times.
var fig4Vars = []string{
	workload.VarRuntimeMedian, workload.VarRuntimeInterval,
	workload.VarNormProcsMedian, workload.VarNormProcsIntvl,
	workload.VarWorkMedian, workload.VarWorkInterval,
	workload.VarInterArrMedian, workload.VarInterArrInterval,
}

// modelLogsArtifact bundles the generated model logs with their fixed
// ordering so the pair can live under one store key.
type modelLogsArtifact struct {
	Logs  map[string]*swf.Log
	Names []string
}

// ModelLogs generates the five model outputs. Each model draws from its
// own seed stream derived from Config.Seed, so the logs are identical no
// matter which experiment triggers the (memoized) generation first.
func ModelLogs(ctx context.Context, env *Env) (map[string]*swf.Log, []string, error) {
	art, err := engine.Memo(env.Store, "artifact:modellogs", func() (modelLogsArtifact, error) {
		if err := ctx.Err(); err != nil {
			return modelLogsArtifact{}, err
		}
		cfg := env.Cfg
		var names []string
		logs := map[string]*swf.Log{}
		for i, spec := range models.Paper {
			r := rng.New(cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15)
			logs[spec.Name] = spec.New(spec.Fit.Procs).Generate(r, cfg.ModelJobs)
			names = append(names, spec.Name)
		}
		return modelLogsArtifact{Logs: logs, Names: names}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return art.Logs, art.Names, nil
}

// Figure4 regenerates the comparison of production workloads and the
// five synthetic models.
func Figure4(ctx context.Context, env *Env) (*FigureResult, error) {
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	return figure4From(ctx, env, t1)
}

func figure4From(ctx context.Context, env *Env, t1 *TableResult) (*FigureResult, error) {
	cfg := env.Cfg
	modelLogs, modelNames, err := ModelLogs(ctx, env)
	if err != nil {
		return nil, err
	}
	rows := []workload.Variables{}
	prodDs, err := datasetFromTable(t1.Table, fig4Vars)
	if err != nil {
		return nil, err
	}
	for _, spec := range models.Paper {
		v, err := workload.Compute(spec.Name, modelLogs[spec.Name], spec.Fit)
		if err != nil {
			return nil, err
		}
		rows = append(rows, v)
	}
	mtab, err := workload.BuildTable(rows, fig4Vars)
	if err != nil {
		return nil, err
	}
	ds := &core.Dataset{
		Observations: append(append([]string(nil), prodDs.Observations...), mtab.Observations...),
		Variables:    append([]string(nil), fig4Vars...),
	}
	ds.X = append(ds.X, prodDs.X...)
	for i := range mtab.Data {
		ds.X = append(ds.X, append([]float64(nil), mtab.Data[i]...))
	}
	res, err := core.AnalyzeContext(ctx, ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig4 goodness of fit",
		Paper:    "alienation 0.06, avg corr 0.89",
		Measured: fmt.Sprintf("alienation %.3f avg corr %.2f", res.Alienation, res.AvgCorr),
		Pass:     res.Alienation < 0.15 && res.AvgCorr > 0.75,
	})
	// Lublin is the "ultimate average": nearest model to the center of
	// gravity of the production observations.
	var cx, cy float64
	for _, name := range sitesNames() {
		p, ok := pointByName(res, name)
		if ok {
			cx += p.X
			cy += p.Y
		}
	}
	cx /= float64(len(sitesNames()))
	cy /= float64(len(sitesNames()))
	type md struct {
		name string
		d    float64
	}
	var dists []md
	for _, name := range modelNames {
		p, _ := pointByName(res, name)
		dists = append(dists, md{name, math.Hypot(p.X-cx, p.Y-cy)})
	}
	sort.Slice(dists, func(a, b int) bool { return dists[a].d < dists[b].d })
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig4 Lublin as the average",
		Paper:    "Lublin places itself as the ultimate average",
		Measured: fmt.Sprintf("closest to centroid: %s (%.2f), then %s (%.2f)", dists[0].name, dists[0].d, dists[1].name, dists[1].d),
		Pass:     dists[0].name == "Lublin" || dists[1].name == "Lublin",
	})
	// Jann is closest to CTC/KTH; Downey and the Feitelson models sit by
	// the interactive+NASA group.
	nearest := func(model string) (string, float64) {
		p, _ := pointByName(res, model)
		best, bestD := "", math.Inf(1)
		for _, name := range sitesNames() {
			q, ok := pointByName(res, name)
			if !ok {
				continue
			}
			if d := pointDist(p, q); d < bestD {
				best, bestD = name, d
			}
		}
		return best, bestD
	}
	jn, _ := nearest("Jann")
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig4 Jann matches the SP2 sites",
		Paper:    "Jann closest to CTC, also close to KTH",
		Measured: fmt.Sprintf("nearest production log: %s", jn),
		Pass:     jn == "CTC" || jn == "KTH",
	})
	interGroup := map[string]bool{"NASA": true, "LANLi": true, "SDSCi": true}
	hits := 0
	detail := []string{}
	for _, m := range []string{"Downey", "Feitelson96", "Feitelson97"} {
		n, _ := nearest(m)
		detail = append(detail, fmt.Sprintf("%s→%s", m, n))
		if interGroup[n] {
			hits++
		}
	}
	fig.Checks = append(fig.Checks, Check{
		Name:     "fig4 early models near interactive+NASA",
		Paper:    "Downey and both Feitelson models match the interactive and NASA workloads",
		Measured: strings.Join(detail, " "),
		Pass:     hits >= 2,
	})
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}

func sitesNames() []string {
	return []string{"CTC", "KTH", "LANL", "LANLi", "LANLb", "LLNL", "NASA", "SDSC", "SDSCi", "SDSCb"}
}

// params3Vars is the section-8 three-parameter set: the processor
// allocation flexibility and the medians of (un-normalized) parallelism
// and inter-arrival time.
var params3Vars = []string{
	workload.VarAllocatorFlex,
	workload.VarProcsMedian,
	workload.VarInterArrMedian,
}

// Params3 regenerates the section-8 three-parameter map (alienation
// 0.02, average correlation 0.94 in the paper).
func Params3(ctx context.Context, env *Env) (*FigureResult, error) {
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	return params3From(env.Cfg, t1)
}

func params3From(cfg Config, t1 *TableResult) (*FigureResult, error) {
	ds, err := datasetFromTable(t1.Table, params3Vars)
	if err != nil {
		return nil, err
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	fig := &FigureResult{Analysis: res, Dataset: ds, SVG: res.SVG(720, 540)}
	fig.Checks = append(fig.Checks, Check{
		Name:     "params3 goodness of fit",
		Paper:    "alienation 0.02, avg corr 0.94",
		Measured: fmt.Sprintf("alienation %.3f avg corr %.2f", res.Alienation, res.AvgCorr),
		Pass:     res.Alienation < 0.1 && res.AvgCorr > 0.8,
	})
	fig.Text = res.ASCIIMap(96, 28) + "\n" + renderChecks(fig.Checks)
	return fig, nil
}
