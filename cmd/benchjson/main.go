// Command benchjson runs the repository's benchmarks and records them
// as a committed JSON baseline, BENCH_<date>.json: per-benchmark ns/op
// and allocation figures, the host that measured them, and the
// serial-vs-parallel speedup of every kernel that follows the
// name/jobs=N sub-benchmark convention. It then compares the fresh
// numbers against the most recent committed baseline and exits
// non-zero when a benchmark regressed beyond -tolerance — the CI
// bench-regression gate.
//
// Usage:
//
//	benchjson [-bench RE] [-benchtime D] [-count N] [-pkg DIR]
//	          [-out DIR] [-date YYYY-MM-DD]
//	          [-baseline FILE | -baseline-dir DIR]
//	          [-tolerance F] [-strict-host]
//	benchjson -input FILE [...]
//
// By default it invokes `go test -run ^$ -bench RE -benchmem` on -pkg
// and parses the output; -input parses an existing go-test output file
// instead (for CI steps that split measuring from gating).
//
// Benchmark timings only gate when they are comparable: the baseline's
// recorded host must match the current machine (GOOS/GOARCH/CPU
// count, and CPU model when both recorded one). On a host mismatch the
// comparison is reported as advisory and the exit stays zero, unless
// -strict-host forces the gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchRe := fs.String("bench", "^Benchmark(SSAMultiStart|EstimateSet|CityBlock)$", "benchmarks to run (go test -bench regexp)")
	benchtime := fs.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime)")
	count := fs.Int("count", 1, "repetitions per benchmark; the fastest run is kept (go test -count)")
	pkg := fs.String("pkg", ".", "package directory to benchmark")
	input := fs.String("input", "", "parse this go-test output file instead of running go test")
	outDir := fs.String("out", ".", "directory for the BENCH_<date>.json file")
	date := fs.String("date", "", "measurement date for the file name (default: today, UTC)")
	baseline := fs.String("baseline", "", "baseline file to compare against (default: latest BENCH_*.json in -baseline-dir)")
	baselineDir := fs.String("baseline-dir", "", "directory scanned for the latest committed baseline (default: -out)")
	tolerance := fs.Float64("tolerance", 0.25, "allowed ns/op slowdown before a benchmark counts as regressed (0.25 = 25%)")
	strictHost := fs.Bool("strict-host", false, "gate on regressions even when the baseline was measured on a different host")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	out, err := benchOutput(*input, *pkg, *benchRe, *benchtime, *count)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	entries, host, err := parseGoBench(strings.NewReader(out))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintf(stderr, "benchjson: no benchmarks matched %q\n", *benchRe)
		return 1
	}
	day := *date
	if day == "" {
		day = time.Now().UTC().Format("2006-01-02")
	}
	f := &benchFile{Date: day, Host: host, Entries: entries, Speedups: computeSpeedups(entries)}

	// Resolve the baseline before writing, so a same-directory run never
	// compares the fresh file against itself.
	basePath := *baseline
	if basePath == "" {
		dir := *baselineDir
		if dir == "" {
			dir = *outDir
		}
		basePath, err = latestBaseline(dir)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
	}

	outPath := filepath.Join(*outDir, "BENCH_"+day+".json")
	if err := f.write(outPath); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", outPath, len(f.Entries))
	for _, s := range f.Speedups {
		fmt.Fprintf(stdout, "  %-24s jobs=%d  %.2fx (%.0f ns/op -> %.0f ns/op)\n",
			s.Kernel, s.Jobs, s.Factor, s.SerialNs, s.ParallelNs)
	}

	if basePath == "" || basePath == outPath {
		fmt.Fprintln(stdout, "no previous baseline: nothing to compare")
		return 0
	}
	base, err := readBenchFile(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	regs := compare(base, f, *tolerance)
	comparable := base.Host.matches(f.Host)
	switch {
	case len(regs) == 0:
		fmt.Fprintf(stdout, "no regressions vs %s (tolerance %.0f%%)\n", basePath, *tolerance*100)
		return 0
	case comparable || *strictHost:
		fmt.Fprintf(stderr, "benchjson: %d regression(s) vs %s:\n", len(regs), basePath)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	default:
		fmt.Fprintf(stdout, "advisory: %d benchmark(s) slower than %s, but the baseline host differs (use -strict-host to gate):\n",
			len(regs), basePath)
		for _, r := range regs {
			fmt.Fprintf(stdout, "  %s\n", r)
		}
		return 0
	}
}

// benchOutput produces the go-test benchmark output: from a saved file
// with -input, otherwise by running the benchmarks.
func benchOutput(input, pkg, benchRe, benchtime string, count int) (string, error) {
	if input != "" {
		data, err := os.ReadFile(input)
		return string(data), err
	}
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	if count > 1 {
		args = append(args, "-count", fmt.Sprint(count))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	return string(out), nil
}
