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
// SWF logs are parsed and characterized in parallel; -jobs bounds the
// workers and -timeout caps the per-file time, and the same budget
// drives the analysis kernels (the SSA multi-start fan-out and the
// dissimilarity row blocks). The resulting dataset and map are
// identical at any -jobs setting. -retries re-attempts a failing file
// with deterministic backoff, -task-timeout bounds each attempt, and
// -keep-going drops unreadable logs (with a warning and a non-zero
// exit) instead of aborting, as long as at least 3 logs survive.
//
// -landmarks N embeds a sample of N observations exactly and places
// the rest against it (landmark MDS) when the dataset is larger than
// N, keeping corpus-scale runs interactive; 0 always solves exactly.
// The resolved value is part of the report cache key.
//
// With -cache-dir, the rendered map report persists keyed by the input
// bytes and options, so re-running over unchanged inputs prints the
// cached report without recomputing; -svg/-shepard bypass the cache (a
// hit would skip rendering them).
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
	"time"

	"coplot/internal/core"
	"coplot/internal/engine"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/service"
	"coplot/internal/store"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

func main() {
	os.Exit(realMain())
}

// loadOptions carries the SWF fan-out settings from the flags.
type loadOptions struct {
	procs          int
	jobs           int
	timeout        time.Duration
	attemptTimeout time.Duration
	retries        int
	backoff        time.Duration
	keepGoing      bool
	sink           obs.Sink
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
	jobs := flag.Int("jobs", 0, "worker budget: SWF files loaded concurrently and analysis kernel workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-file parse/characterize time limit across all attempts (0 = none)")
	retries := flag.Int("retries", 0, "retry a failing file up to N more times (0 = fail on first error)")
	backoff := flag.Duration("backoff", 0, "base delay before the first retry, doubling per retry (0 = engine default)")
	taskTimeout := flag.Duration("task-timeout", 0, "per-attempt time limit; a timed-out attempt is retried under -retries (0 = none)")
	keepGoing := flag.Bool("keep-going", false, "drop unreadable logs (warning + non-zero exit) instead of aborting; needs >=3 surviving logs")
	cacheDir := flag.String("cache-dir", "", "durable report cache directory; the rendered map report is reused across invocations over unchanged inputs")
	cacheTier := flag.String("cache-tier", "", "cache backend: memory, disk, or tiered (empty = tiered when -cache-dir is set, memory otherwise)")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file")
	tracePath := flag.String("trace", "", "append engine events as JSON lines to this file")
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

	// The report cache keys the rendered map by input bytes + options;
	// SVG outputs bypass it, since a hit skips the analysis that renders
	// them. A hit prints the cached report and exits before any loading.
	var cache store.Backend
	var reportKey string
	if (*cacheDir != "" || *cacheTier != "") && *svgPath == "" && *shepardPath == "" {
		cache, err = store.Open(*cacheDir, *cacheTier, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coplot:", err)
			return 1
		}
		if key, ok := cacheKeyFor(*csvPath, flag.Args(), *prune, *vars, *seed, *procs, *landmarks); ok {
			reportKey = key
			if v, ok := cache.Get(key); ok {
				if text, ok := v.([]byte); ok {
					fmt.Print(string(text))
					return 0
				}
			}
		}
	}

	lopts := loadOptions{
		procs: *procs, jobs: *jobs, timeout: *timeout, attemptTimeout: *taskTimeout,
		retries: *retries, backoff: *backoff, keepGoing: *keepGoing,
		sink: obs.Multi(sinks...),
	}
	ds, err := loadDataset(*csvPath, flag.Args(), lopts)
	if *manifestPath != "" {
		m := metrics.Manifest(obs.RunInfo{Tool: "coplot", Seed: *seed, Jobs: *jobs, Timeout: *timeout})
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
		MDS:            mds.Options{Seed: *seed, Par: par.NewBudget(*jobs), Landmarks: *landmarks},
		PruneThreshold: *prune,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coplot:", err)
		return 1
	}
	reportText := res.Report()
	fmt.Print(reportText)
	if reportKey != "" && exit == 0 {
		// Only a clean run caches: a degraded keep-going map reflects
		// whatever subset of logs survived, not the argument list.
		cache.Put(reportKey, []byte(reportText), int64(len(reportText)))
	}
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

// reportCacheSchema versions the cached report layout; bump it when
// the report rendering changes, so stale disk caches miss instead of
// serving old text.
const reportCacheSchema = 1

// cacheKeyFor derives the durable cache key for the rendered map
// report: a content hash over every input file plus the options that
// shape the report (-jobs is excluded — output is identical at any
// worker count). ok is false when an input cannot be read or the
// argument mix is invalid; the normal load path surfaces the error.
func cacheKeyFor(csvPath string, swfPaths []string, prune float64, vars string, seed uint64, procs, landmarks int) (string, bool) {
	if csvPath != "" && len(swfPaths) > 0 {
		return "", false
	}
	paths := swfPaths
	if csvPath != "" {
		paths = []string{csvPath}
	}
	blobs := make([][]byte, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", false
		}
		blobs = append(blobs, data)
	}
	opts := []string{
		fmt.Sprintf("schema=%d", reportCacheSchema),
		fmt.Sprintf("csv=%t", csvPath != ""),
		fmt.Sprintf("prune=%g", prune),
		"vars=" + vars,
		fmt.Sprintf("seed=%d", seed),
		fmt.Sprintf("procs=%d", procs),
		fmt.Sprintf("landmarks=%d", landmarks),
	}
	return store.Key("coplot-cli", opts, blobs...), true
}

func loadDataset(csvPath string, swfPaths []string, opts loadOptions) (*core.Dataset, error) {
	switch {
	case csvPath != "" && len(swfPaths) > 0:
		return nil, fmt.Errorf("choose either -csv or SWF files, not both")
	case csvPath != "":
		return loadCSV(csvPath)
	case len(swfPaths) >= 3:
		return loadSWF(swfPaths, opts)
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

func loadSWF(paths []string, lopts loadOptions) (*core.Dataset, error) {
	m := machine.Machine{Name: "cli", Procs: lopts.procs,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	// Each file parses and characterizes independently; engine.Map keeps
	// the rows in argument order regardless of completion order. The
	// engine labels failures with the file path, so fn returns bare
	// errors.
	opts := engine.MapOptions{
		Workers: lopts.jobs, Timeout: lopts.timeout, AttemptTimeout: lopts.attemptTimeout,
		KeepGoing: lopts.keepGoing, Sink: lopts.sink,
		Label: func(i int) string { return paths[i] },
	}
	if lopts.retries > 0 {
		opts.Retry = engine.RetryPolicy{MaxAttempts: lopts.retries + 1, BaseBackoff: lopts.backoff}
	}
	itemErrs := make([]error, len(paths)) // index i written only by its worker
	rows, err := engine.Map(context.Background(), len(paths), opts,
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
