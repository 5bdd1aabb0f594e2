package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"coplot/internal/core"
	"coplot/internal/machine"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// HomogeneityResult is the section-6 audit of one log: "Co-Plot could be
// used in this manner to test any new log, by dividing it into several
// parts and mapping it with all the other workloads. This should tell
// whether the log is homogeneous, and whether it contains time intervals
// in which work on the logged machine had unusual patterns."
type HomogeneityResult struct {
	// Analysis is the joint map: the ten production observations plus
	// one point per period of the audited log (named P1, P2, ...).
	Analysis *core.Result
	// PeriodSpread is the mean distance of the period points from their
	// own centroid; BaselineSpread is the same for the production
	// observations. A log is heterogeneous when its periods scatter on
	// the scale of whole different systems.
	PeriodSpread, BaselineSpread float64
	// Outliers lists periods lying unusually far from the period
	// centroid (over twice the mean period distance).
	Outliers []string
	// Homogeneous is the verdict.
	Homogeneous bool
	Text        string
}

// Homogeneity splits the log into `periods` consecutive windows, maps
// them together with the ten production observations, and measures how
// tightly the periods cluster.
func Homogeneity(ctx context.Context, env *Env, log *swf.Log, m machine.Machine, periods int) (*HomogeneityResult, error) {
	cfg := env.Cfg
	if periods < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 periods, got %d", periods)
	}
	parts := log.SplitPeriods(periods)
	if parts == nil {
		return nil, fmt.Errorf("experiments: empty log")
	}
	t1, err := Table1(ctx, env)
	if err != nil {
		return nil, err
	}
	ds, err := datasetFromTable(t1.Table, fig3Vars)
	if err != nil {
		return nil, err
	}
	var periodNames []string
	for i, p := range parts {
		name := fmt.Sprintf("P%d", i+1)
		if len(p.Jobs) < 16 {
			return nil, fmt.Errorf("experiments: period %s holds only %d jobs; use fewer periods", name, len(p.Jobs))
		}
		v, err := workload.Compute(name, p, m)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(fig3Vars))
		for j, code := range fig3Vars {
			val := v.Get(code)
			if math.IsNaN(val) {
				val = 0
			}
			row[j] = val
		}
		ds.Observations = append(ds.Observations, name)
		ds.X = append(ds.X, row)
		periodNames = append(periodNames, name)
	}
	res, err := core.AnalyzeContext(ctx, ds, core.Options{MDS: cfg.mdsOptions()})
	if err != nil {
		return nil, err
	}
	out := &HomogeneityResult{Analysis: res}

	spread := func(names []string) float64 {
		var cx, cy float64
		pts := make([]core.Point, 0, len(names))
		for _, n := range names {
			p, ok := pointByName(res, n)
			if !ok {
				continue
			}
			pts = append(pts, p)
			cx += p.X
			cy += p.Y
		}
		if len(pts) == 0 {
			return math.NaN()
		}
		cx /= float64(len(pts))
		cy /= float64(len(pts))
		s := 0.0
		for _, p := range pts {
			s += math.Hypot(p.X-cx, p.Y-cy)
		}
		return s / float64(len(pts))
	}
	out.PeriodSpread = spread(periodNames)
	out.BaselineSpread = spread(sitesNames())

	// Flag periods far from the period centroid.
	var cx, cy float64
	for _, n := range periodNames {
		p, _ := pointByName(res, n)
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(periodNames))
	cy /= float64(len(periodNames))
	for _, n := range periodNames {
		p, _ := pointByName(res, n)
		if d := math.Hypot(p.X-cx, p.Y-cy); out.PeriodSpread > 0 && d > 2*out.PeriodSpread {
			out.Outliers = append(out.Outliers, n)
		}
	}
	sort.Strings(out.Outliers)
	// Homogeneous: the periods scatter clearly less than whole different
	// systems do, and no period is a lone outlier. Long-range-dependent
	// workloads legitimately drift between periods (the paper's SDSC
	// periods scatter too), so the bar is "noticeably tighter than
	// system-to-system differences", not "identical".
	out.Homogeneous = out.PeriodSpread < 0.85*out.BaselineSpread && len(out.Outliers) == 0

	var b strings.Builder
	fmt.Fprintf(&b, "Homogeneity audit (%d periods of %d jobs total)\n", periods, len(log.Jobs))
	b.WriteString(res.ASCIIMap(96, 26))
	fmt.Fprintf(&b, "\nperiod spread %.3f vs production-system spread %.3f\n", out.PeriodSpread, out.BaselineSpread)
	if len(out.Outliers) > 0 {
		fmt.Fprintf(&b, "outlying periods: %s\n", strings.Join(out.Outliers, " "))
	}
	if out.Homogeneous {
		b.WriteString("verdict: homogeneous — past periods are a reasonable model of the near future\n")
	} else {
		b.WriteString("verdict: NOT homogeneous — the log contains intervals with unusual work patterns\n")
	}
	out.Text = b.String()
	return out, nil
}
