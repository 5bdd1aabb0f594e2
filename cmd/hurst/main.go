// Command hurst estimates the Hurst parameter of the four per-workload
// series of the paper's Table 3 — used processors, runtime, total CPU
// work, and inter-arrival times — with the three estimators of the
// appendix: R/S analysis, variance-time plots, and the periodogram.
//
// Usage:
//
//	hurst [-svgdir DIR] [-jobs N] [-timeout D] [-keep-going=BOOL]
//	      FILE.swf...
//
// Files are estimated in parallel, one engine.Map task per file, under
// the engine flags engine.Options.RegisterFlags declares for hurst,
// coplot and experiments alike (-jobs workers, -timeout per file). The
// same -jobs budget feeds the per-series estimator fan-out, so total
// compute parallelism stays bounded; reports print in argument order
// and — by default (-keep-going=true) — a failing file does not stop
// the others; -keep-going=false makes the first failure cancel the
// batch.
// With -svgdir, the three diagnostic plots (pox plot, variance-time
// plot, periodogram) of each series are written as SVG files.
//
// Observability: -manifest records a JSON run manifest of the per-file
// fan-out (wall time per file, jobs/timeout settings), -trace appends
// the engine events as JSON lines, and -cpuprofile/-memprofile/-pprof
// expose the standard Go profilers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coplot/internal/engine"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/selfsim"
	"coplot/internal/service"
	"coplot/internal/swf"
)

func main() {
	os.Exit(realMain())
}

// realMain runs the CLI and returns its exit code, so deferred
// cleanups (profile flush, trace close) run before the process exits.
func realMain() int {
	svgDir := flag.String("svgdir", "", "write diagnostic plots as SVG under this directory")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file")
	tracePath := flag.String("trace", "", "append engine events as JSON lines to this file")
	// A failing file does not stop the others unless -keep-going=false.
	opts := engine.Options{KeepGoing: true}
	opts.RegisterFlags(flag.CommandLine)
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hurst: no input files")
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hurst:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "hurst: profile:", err)
		}
	}()
	metrics := obs.NewMetrics()
	sinks := []obs.Sink{metrics}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hurst:", err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, obs.NewTrace(f))
	}
	opts.Sink = obs.Multi(sinks...)
	reports := estimateAll(flag.Args(), *svgDir, opts)
	if *manifestPath != "" {
		m := metrics.Manifest(obs.RunInfo{Tool: "hurst", Jobs: opts.Jobs, Timeout: opts.Timeout})
		if err := m.WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "hurst: manifest:", err)
			return 1
		}
	}
	exit := 0
	for i, rep := range reports {
		if rep.err != nil {
			fmt.Fprintf(os.Stderr, "hurst: %s: %v\n", flag.Arg(i), rep.err)
			exit = 1
			continue
		}
		fmt.Print(rep.text)
	}
	return exit
}

// report holds one file's rendered estimates, or its failure.
type report struct {
	text string
	err  error
}

// estimateAll runs estimate over the files through engine.Map and
// returns the reports in argument order. Failures surface through the
// engine — so with opts.KeepGoing they degrade instead of cancelling
// the batch — and come
// back inside the per-file reports: a file that was estimated keeps
// its report even when another file fails the batch, a file that
// failed or was cancelled carries its own error, and a file that never
// started carries the batch error.
func estimateAll(paths []string, svgDir string, opts engine.Options) []report {
	// One budget for the whole batch: file workers and the estimator
	// fan-out inside each file draw from the same -jobs.
	budget := par.NewBudget(opts.Jobs)
	out := make([]report, len(paths)) // index i written only by its worker
	ran := make([]bool, len(paths))
	_, err := engine.Map(context.Background(), paths, opts,
		func(ctx context.Context, i int) (struct{}, error) {
			text, err := estimate(ctx, paths[i], svgDir, budget)
			if err == nil {
				err = ctx.Err() // the engine fails a task that outlived its context
			}
			out[i], ran[i] = report{text: text, err: err}, true
			return struct{}{}, err
		})
	if err != nil {
		for i := range out {
			if !ran[i] {
				out[i].err = err
			}
		}
	}
	return out
}

// estimate renders one log's estimates through the shared
// serving-layer renderer — hurst output and the /v1/hurst endpoint
// stay byte-identical — hooking the SVG diagnostics into its
// per-series callback.
func estimate(ctx context.Context, path, svgDir string, budget *par.Budget) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	log, err := swf.Parse(f)
	if err != nil {
		return "", err
	}
	var onSeries func(name string, x []float64) error
	if svgDir != "" {
		onSeries = func(name string, x []float64) error {
			return writeDiagnostics(svgDir, path, name, x)
		}
	}
	return service.HurstReport(ctx, path, log, budget, onSeries)
}

func writeDiagnostics(dir, logPath, seriesName string, x []float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := strings.TrimSuffix(filepath.Base(logPath), filepath.Ext(logPath))
	for _, d := range []struct {
		name string
		data func([]float64) (selfsim.FitData, error)
	}{
		{"pox", selfsim.RSData},
		{"vt", selfsim.VarianceTimeData},
		{"per", selfsim.PeriodogramData},
	} {
		fit, err := d.data(x)
		if err != nil {
			continue // short or degenerate series: skip the plot
		}
		svg, err := fit.SVG(fmt.Sprintf("%s %s %s", base, seriesName, d.name))
		if err != nil {
			continue
		}
		out := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.svg", base, seriesName, d.name))
		if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}
