package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchHost describes the machine class a benchmark file was measured on.
type benchHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"` // the go-test "cpu:" header, when present
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// currentHost describes the running process's machine.
func currentHost() benchHost {
	return benchHost{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// Comparable reports whether timings from the two hosts can gate CI:
// same platform and CPU count. The CPU model string participates only
// when both sides recorded one.
func (h benchHost) matches(o benchHost) bool {
	if h.GOOS != o.GOOS || h.GOARCH != o.GOARCH || h.NumCPU != o.NumCPU {
		return false
	}
	if h.CPU != "" && o.CPU != "" && h.CPU != o.CPU {
		return false
	}
	return true
}

// benchEntry is one benchmark result line.
type benchEntry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "SSAMultiStart/jobs=4".
	Name string `json:"name"`
	// Iters is the measured iteration count (the b.N go test settled on).
	Iters int `json:"iters"`
	// NsPerOp is the headline wall-clock figure.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any custom b.ReportMetric values (alienation, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// speedup is the serial-vs-parallel ratio of one kernel's sub-benchmark
// pair.
type speedup struct {
	// Kernel is the benchmark name without the /jobs=N suffix.
	Kernel string `json:"kernel"`
	// Jobs is the parallel variant's worker budget.
	Jobs int `json:"jobs"`
	// SerialNs and ParallelNs are the two ns/op figures.
	SerialNs   float64 `json:"serial_ns"`
	ParallelNs float64 `json:"parallel_ns"`
	// Factor is SerialNs/ParallelNs: >1 means the budget helped.
	Factor float64 `json:"factor"`
}

// benchFile is one committed BENCH_<date>.json document.
type benchFile struct {
	// Date is the measurement date, YYYY-MM-DD.
	Date string    `json:"date"`
	Host benchHost `json:"host"`
	// Entries lists every parsed benchmark in output order.
	Entries []benchEntry `json:"entries"`
	// Speedups lists the jobs=1/jobs=N ratios derivable from Entries.
	Speedups []speedup `json:"speedups,omitempty"`
}

// benchLine matches one go-test benchmark result line: a name starting
// with "Benchmark", an iteration count, then "value unit" pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix is the "-8" style suffix go test appends to names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseGoBench reads `go test -bench` output: benchmark lines become
// Entries (in output order) and the goos/goarch/cpu headers fill the
// matching host fields. Non-benchmark lines (PASS, ok, test logs) are
// ignored. Duplicate names (from -count N) keep the fastest ns/op, the
// conventional reduction for noisy timings.
func parseGoBench(r io.Reader) ([]benchEntry, benchHost, error) {
	host := currentHost()
	var entries []benchEntry
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			host.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			host.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			host.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		e, err := parseEntry(m)
		if err != nil {
			return nil, host, fmt.Errorf("bench: line %q: %w", line, err)
		}
		if at, ok := index[e.Name]; ok {
			if e.NsPerOp < entries[at].NsPerOp {
				entries[at] = e
			}
			continue
		}
		index[e.Name] = len(entries)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, host, err
	}
	return entries, host, nil
}

func parseEntry(m []string) (benchEntry, error) {
	name := strings.TrimPrefix(m[1], "Benchmark")
	name = gomaxprocsSuffix.ReplaceAllString(name, "")
	iters, err := strconv.Atoi(m[2])
	if err != nil {
		return benchEntry{}, err
	}
	e := benchEntry{Name: name, Iters: iters}
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		return benchEntry{}, fmt.Errorf("odd value/unit fields %q", m[3])
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchEntry{}, fmt.Errorf("value %q: %v", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default: // a b.ReportMetric custom unit
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	if e.NsPerOp == 0 {
		return benchEntry{}, fmt.Errorf("no ns/op field")
	}
	return e, nil
}

// jobsName splits "Kernel/jobs=N" into its kernel and worker count.
var jobsName = regexp.MustCompile(`^(.+)/jobs=(\d+)$`)

// computeSpeedups derives the serial-vs-parallel ratios from the
// name/jobs=N sub-benchmark convention: every kernel with a jobs=1
// entry gets one speedup per other worker count, in (kernel, jobs)
// order. Kernels missing their jobs=1 baseline are skipped.
func computeSpeedups(entries []benchEntry) []speedup {
	serial := map[string]float64{}
	parallel := map[string][]speedup{}
	var kernels []string
	for _, e := range entries {
		m := jobsName.FindStringSubmatch(e.Name)
		if m == nil {
			continue
		}
		kernel := m[1]
		jobs, _ := strconv.Atoi(m[2])
		if _, seen := serial[kernel]; !seen && parallel[kernel] == nil {
			kernels = append(kernels, kernel)
		}
		if jobs == 1 {
			serial[kernel] = e.NsPerOp
			continue
		}
		parallel[kernel] = append(parallel[kernel], speedup{Kernel: kernel, Jobs: jobs, ParallelNs: e.NsPerOp})
	}
	var out []speedup
	for _, kernel := range kernels {
		s, ok := serial[kernel]
		if !ok || s == 0 {
			continue
		}
		variants := parallel[kernel]
		sort.Slice(variants, func(i, j int) bool { return variants[i].Jobs < variants[j].Jobs })
		for _, v := range variants {
			v.SerialNs = s
			if v.ParallelNs > 0 {
				v.Factor = s / v.ParallelNs
			}
			out = append(out, v)
		}
	}
	return out
}

// regression is one benchmark that got slower than the baseline allows.
type regression struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns"`
	CurrentNs  float64 `json:"current_ns"`
	// Ratio is CurrentNs/BaselineNs; it exceeds 1+tolerance.
	Ratio float64 `json:"ratio"`
}

func (r regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx, regression)",
		r.Name, r.BaselineNs, r.CurrentNs, r.Ratio)
}

// compare returns the benchmarks in current that regressed beyond
// tolerance (e.g. 0.25 allows 25% slowdown) against the baseline.
// Benchmarks present on only one side are ignored: adding or retiring a
// benchmark is not a regression.
func compare(baseline, current *benchFile, tolerance float64) []regression {
	base := map[string]float64{}
	for _, e := range baseline.Entries {
		base[e.Name] = e.NsPerOp
	}
	var regs []regression
	for _, e := range current.Entries {
		b, ok := base[e.Name]
		if !ok || b == 0 {
			continue
		}
		ratio := e.NsPerOp / b
		if ratio > 1+tolerance {
			regs = append(regs, regression{Name: e.Name, BaselineNs: b, CurrentNs: e.NsPerOp, Ratio: ratio})
		}
	}
	return regs
}

// ReadFile loads one BENCH_<date>.json document.
func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// WriteFile saves the document as indented JSON with a trailing
// newline, the committed-file convention.
func (f *benchFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// latestBaseline returns the lexically greatest BENCH_*.json under dir
// — the naming scheme makes that the most recent date — or "" when none
// exist.
func latestBaseline(dir string) (string, error) {
	matches, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	latest := ""
	for _, de := range matches {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if name > latest {
			latest = name
		}
	}
	if latest == "" {
		return "", nil
	}
	return dir + string(os.PathSeparator) + latest, nil
}
