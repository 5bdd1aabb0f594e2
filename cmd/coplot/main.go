// Command coplot runs the Co-plot method on a CSV data matrix or on a
// set of SWF workload logs.
//
// CSV input: the first row holds variable names (first cell ignored),
// each following row holds an observation name and its values.
//
//	coplot -csv data.csv [-prune 0.7] [-svg out.svg]
//
// SWF input: each log becomes one observation characterized by the
// paper's Table-1 variables (computed against -procs/-sched/-alloc):
//
//	coplot -procs 128 a.swf b.swf c.swf ...
//
// SWF logs are parsed and characterized in parallel, one engine.Map
// task per file. The engine flags are engine.Options.RegisterFlags's,
// shared with hurst and experiments: -jobs bounds the workers and
// -timeout caps the per-file time, and the same budget drives the
// analysis kernels (the SSA multi-start fan-out and the dissimilarity
// row blocks). The resulting dataset and map are identical at any
// -jobs setting. -keep-going drops unreadable logs (with a warning and
// a non-zero exit) instead of aborting, as long as at least 3 logs
// survive.
//
// -landmarks N embeds a sample of N observations exactly and places
// the rest against it (landmark MDS) when the dataset is larger than
// N, keeping corpus-scale runs interactive; 0 always solves exactly.
//
// Observability: -manifest records a JSON run manifest of the per-file
// fan-out (wall time per file, jobs/timeout settings), -trace appends
// the engine events as JSON lines, and -cpuprofile/-memprofile/-pprof
// expose the standard Go profilers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"coplot/internal/core"
	"coplot/internal/engine"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/service"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

func main() {
	os.Exit(realMain())
}

// realMain runs the CLI and returns its exit code, so deferred
// cleanups (profile flush, trace close) run before the process exits.
func realMain() int {
	csvPath := flag.String("csv", "", "CSV data matrix input")
	svgPath := flag.String("svg", "", "write the map as SVG to this file")
	shepardPath := flag.String("shepard", "", "write the Shepard diagram as SVG to this file")
	prune := flag.Float64("prune", 0, "prune variables with max correlation below this (0 = keep all)")
	vars := flag.String("vars", "", "comma-separated variable subset to analyze")
	seed := flag.Uint64("seed", 7, "MDS restart seed")
	landmarks := flag.Int("landmarks", 0, "landmark count: analyses over more observations use landmark MDS (0 = always solve exactly)")
	procs := flag.Int("procs", 128, "machine size for SWF inputs")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file")
	tracePath := flag.String("trace", "", "append engine events as JSON lines to this file")
	var opts engine.Options
	opts.RegisterFlags(flag.CommandLine)
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *landmarks < 0 {
		fmt.Fprintf(os.Stderr, "coplot: -landmarks %d is negative\n", *landmarks)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplot:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "coplot: profile:", err)
		}
	}()
	metrics := obs.NewMetrics()
	sinks := []obs.Sink{metrics}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, obs.NewTrace(f))
	}

	opts.Sink = obs.Multi(sinks...)
	ds, err := loadDataset(*csvPath, flag.Args(), *procs, opts)
	if *manifestPath != "" {
		m := metrics.Manifest(obs.RunInfo{Tool: "coplot", Seed: *seed, Jobs: opts.Jobs, Timeout: opts.Timeout})
		if werr := m.WriteFile(*manifestPath); werr != nil {
			fmt.Fprintln(os.Stderr, "coplot: manifest:", werr)
			return 1
		}
	}
	exit := 0
	var deg *engine.DegradedError
	if errors.As(err, &deg) && ds != nil {
		// Keep-going: analyze the surviving logs, but exit non-zero.
		for i, name := range deg.Failed {
			fmt.Fprintf(os.Stderr, "coplot: dropped %s: %v\n", name, deg.Errs[i])
		}
		exit = 1
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "coplot:", err)
		return 1
	}
	if *vars != "" {
		ds, err = ds.Select(strings.Split(*vars, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{
		// The same -jobs budget that bounded the file fan-out drives
		// the analysis kernels (SSA multi-starts, dissimilarity rows).
		MDS:            mds.Options{Seed: *seed, Par: par.NewBudget(opts.Jobs), Landmarks: *landmarks},
		PruneThreshold: *prune,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplot:", err)
		return 1
	}
	fmt.Print(res.Report())
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(res.SVG(720, 540)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
	}
	if *shepardPath != "" {
		svg, err := res.ShepardSVG()
		if err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
		if err := os.WriteFile(*shepardPath, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
	}
	return exit
}

func loadDataset(csvPath string, swfPaths []string, procs int, opts engine.Options) (*core.Dataset, error) {
	switch {
	case csvPath != "" && len(swfPaths) > 0:
		return nil, fmt.Errorf("choose either -csv or SWF files, not both")
	case csvPath != "":
		return loadCSV(csvPath)
	case len(swfPaths) >= 3:
		return loadSWF(swfPaths, procs, opts)
	}
	return nil, fmt.Errorf("need -csv FILE or at least 3 SWF logs")
}

// loadCSV parses a CSV data matrix through the shared serving-layer
// parser, so a file fed to coplot and the same bytes posted to
// /v1/analyze build the same dataset.
func loadCSV(path string) (*core.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return service.ParseCSVDataset(path, f)
}

func loadSWF(paths []string, procs int, opts engine.Options) (*core.Dataset, error) {
	m := machine.Machine{Name: "cli", Procs: procs,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	// Each file parses and characterizes independently; engine.Map keeps
	// the rows in argument order regardless of completion order. The
	// engine labels failures with the file path, so fn returns bare
	// errors.
	itemErrs := make([]error, len(paths)) // index i written only by its worker
	rows, err := engine.Map(context.Background(), paths, opts,
		func(ctx context.Context, i int) (workload.Variables, error) {
			row, err := loadOne(paths[i], m)
			itemErrs[i] = err
			return row, err
		})
	var deg *engine.DegradedError
	if errors.As(err, &deg) {
		// Keep-going: drop the failed logs and analyze the survivors,
		// if enough remain to place on a map.
		var kept []workload.Variables
		for i, row := range rows {
			if itemErrs[i] == nil {
				kept = append(kept, row)
			}
		}
		if len(kept) < 3 {
			return nil, fmt.Errorf("only %d of %d logs loaded, need at least 3: %w", len(kept), len(paths), deg)
		}
		rows = kept
	} else if err != nil {
		return nil, err
	}
	ds, berr := service.DatasetFromVariables(rows)
	if berr != nil {
		return nil, berr
	}
	return ds, err // err is nil or the *engine.DegradedError
}

// loadOne parses and characterizes one SWF log.
func loadOne(path string, m machine.Machine) (workload.Variables, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Variables{}, err
	}
	defer f.Close()
	log, err := swf.Parse(f)
	if err != nil {
		return workload.Variables{}, err
	}
	return workload.Compute(path, log, m)
}
