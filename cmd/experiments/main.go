// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run NAME[,NAME...]|all] [-out DIR] [-seed N]
//	            [-jobs N] [-timeout D] [-keep-going]
//	            [-sitejobs N] [-modeljobs N] [-periodjobs N]
//	            [-manifest FILE] [-trace FILE] [-inject SPEC]
//	            [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
//	experiments -report [-manifest FILE] [-report-into FILE]
//
// NAME is one of the paper's artifacts — table1, fig1, fig2, table2,
// fig3, fig4, params3, table3, fig5 — or an extension study: paper (the
// published-data validation), table3ci (bootstrap confidence intervals),
// seeds (robustness sweep across master seeds), moments, stability,
// loadscale, parametric, selfsim-models. -run accepts a comma-separated
// list; dependencies shared between the named experiments run once.
//
// Experiments run on a dependency-aware parallel engine, under the
// engine flags engine.Options.RegisterFlags declares for experiments,
// coplot and hurst alike: -jobs bounds how many run concurrently and
// -timeout caps each one's wall-clock time. The same -jobs budget is
// shared with the numeric kernels inside each experiment (SSA
// multi-starts, Hurst estimator fan-outs, blocked matrix loops), so
// total compute parallelism stays bounded. Shared artifacts (generated
// logs, workload tables) are computed once per invocation, and outputs
// are byte-identical at any -jobs setting.
//
// Fault tolerance: every experiment runs once. -timeout caps each
// one's wall-clock time, panics inside an experiment become typed
// task errors, and -keep-going turns a failure into degradation: the
// failed experiment is recorded, its dependents are skipped, every
// independent experiment completes, and the process exits non-zero with
// a failure summary in the manifest. -inject deterministically injects
// faults ('fig1=error,table3=panic') to test those paths.
//
// Every run is observed: -manifest (default out/manifest.json, "" to
// disable) records a JSON run manifest — per-experiment wall time,
// dependency edges, artifact-cache hit ratio, run settings — that is
// identical across same-seed runs except for its timing fields, and
// -trace appends every engine event (experiment start/finish,
// store hit/miss/wait, pool occupancy) as JSON lines. -cpuprofile,
// -memprofile and -pprof expose the standard Go profilers.
//
// -report renders an existing manifest as a Markdown timing table: to
// stdout, or into the marked run-report section of a documentation
// file with -report-into (this is how EXPERIMENTS.md gets its measured
// timings).
//
// Text renderings go to stdout; with -out, per-experiment .txt (and .svg
// for figures) artifacts are written under DIR. "-run all" runs
// everything except the seeds sweep (which re-runs the headline
// experiments five times; invoke it explicitly).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coplot/internal/engine"
	"coplot/internal/experiments"
	"coplot/internal/faultinject"
	"coplot/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runName := fs.String("run", "all", "experiments to run: 'all' or a comma-separated list of names")
	out := fs.String("out", "", "directory for .txt/.svg artifacts (optional)")
	seed := fs.Uint64("seed", 0, "master seed (0 = paper default)")
	inject := fs.String("inject", "", "fault-injection schedule 'target=error|panic|hang,...' (testing)")
	siteJobs := fs.Int("sitejobs", 0, "jobs per production-site log (0 = default)")
	modelJobs := fs.Int("modeljobs", 0, "jobs per synthetic-model log (0 = default)")
	periodJobs := fs.Int("periodjobs", 0, "jobs per half-year period log (0 = default)")
	manifest := fs.String("manifest", "out/manifest.json", "write the run manifest to this file ('' = off)")
	trace := fs.String("trace", "", "append engine events as JSON lines to this file")
	report := fs.Bool("report", false, "render the manifest as a Markdown timing table and exit")
	reportInto := fs.String("report-into", "", "with -report: update the run-report section of this file instead of printing")
	var opts experiments.RunOptions
	opts.RegisterFlags(fs)
	var prof obs.Profile
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *report {
		if *manifest == "" {
			return fmt.Errorf("-report needs -manifest FILE")
		}
		m, err := obs.ReadManifest(*manifest)
		if err != nil {
			return err
		}
		if *reportInto != "" {
			if err := obs.UpdateReportSection(*reportInto, m.Report()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "run report updated in %s\n", *reportInto)
			return nil
		}
		fmt.Fprint(stdout, m.Report())
		return nil
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: profile:", err)
		}
	}()

	metrics := obs.NewMetrics()
	sinks := []obs.Sink{metrics}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		ts := obs.NewTrace(f)
		defer func() {
			if err := ts.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", err)
			}
		}()
		sinks = append(sinks, ts)
	}

	var sched *faultinject.Schedule
	if *inject != "" {
		sched, err = faultinject.Parse(*inject)
		if err != nil {
			return err
		}
	}
	cfg := experiments.Config{
		Seed: *seed, Jobs: *siteJobs, ModelJobs: *modelJobs, PeriodJobs: *periodJobs,
	}
	opts.Inject, opts.Sink = sched, obs.Multi(sinks...)
	ctx := context.Background()

	var outs []*experiments.Output
	var runErr error
	if *runName == "all" {
		outs, runErr = experiments.RunAll(ctx, cfg, opts)
	} else {
		outs, runErr = experiments.RunNames(ctx, strings.Split(*runName, ","), cfg, opts)
	}
	// The manifest documents failed runs too, so write it before
	// surfacing the run error.
	if *manifest != "" {
		m := metrics.Manifest(obs.RunInfo{
			Tool: "experiments", Seed: cfg.WithDefaults().Seed, Jobs: opts.Jobs, Timeout: opts.Timeout,
		})
		if err := m.WriteFile(*manifest); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	// A degraded keep-going run still reports and saves every completed
	// output before surfacing its failure summary (and non-zero exit).
	var deg *engine.DegradedError
	if runErr != nil && !errors.As(runErr, &deg) {
		return runErr
	}
	for _, o := range outs {
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", o.Name, o.Text)
	}
	if len(outs) > 1 {
		fmt.Fprintln(stdout, "==== summary ====")
		fmt.Fprint(stdout, experiments.Summary(outs))
	}
	if *out != "" {
		if err := experiments.WriteOutputs(*out, outs); err != nil {
			return fmt.Errorf("writing artifacts: %w", err)
		}
		fmt.Fprintf(stdout, "artifacts written to %s\n", *out)
	}
	if *manifest != "" {
		fmt.Fprintf(stdout, "manifest written to %s\n", *manifest)
	}
	return runErr
}
