package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: coplot
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSSAMultiStart/jobs=1-8         	      28	  41204503 ns/op	 1203 B/op	      17 allocs/op	         0.3249 alienation
BenchmarkSSAMultiStart/jobs=4-8         	      90	  12918877 ns/op	 1511 B/op	      33 allocs/op	         0.3249 alienation
BenchmarkEstimateSet/jobs=1             	     126	   9255437 ns/op
BenchmarkEstimateSet/jobs=4             	     402	   2943811 ns/op
BenchmarkCityBlock/jobs=1-8             	     800	   1497711 ns/op
BenchmarkTable1-8                       	      12	  98211004 ns/op	         8.000 checks-passed	         8.000 checks-total
PASS
ok  	coplot	12.345s
`

func parseSample(t *testing.T) ([]benchEntry, benchHost) {
	t.Helper()
	entries, host, err := parseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return entries, host
}

func TestParseGoBench(t *testing.T) {
	entries, host, err := parseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if host.GOOS != "linux" || host.GOARCH != "amd64" {
		t.Fatalf("host = %+v", host)
	}
	if !strings.Contains(host.CPU, "Xeon") {
		t.Fatalf("cpu = %q", host.CPU)
	}
	if len(entries) != 6 {
		t.Fatalf("entries = %d, want 6", len(entries))
	}
	// The -8 GOMAXPROCS suffix is stripped; the bare name is kept.
	if entries[0].Name != "SSAMultiStart/jobs=1" {
		t.Fatalf("name = %q", entries[0].Name)
	}
	if entries[0].Iters != 28 || entries[0].NsPerOp != 41204503 {
		t.Fatalf("entry = %+v", entries[0])
	}
	if entries[0].BytesPerOp != 1203 || entries[0].AllocsPerOp != 17 {
		t.Fatalf("memstats = %+v", entries[0])
	}
	if entries[0].Metrics["alienation"] != 0.3249 {
		t.Fatalf("metrics = %+v", entries[0].Metrics)
	}
	// Plain benchmarks without memstats parse too.
	if entries[2].Name != "EstimateSet/jobs=1" || entries[2].BytesPerOp != 0 {
		t.Fatalf("entry = %+v", entries[2])
	}
	if entries[5].Name != "Table1" {
		t.Fatalf("name = %q", entries[5].Name)
	}
}

func TestParseGoBenchKeepsFastestDuplicate(t *testing.T) {
	out := "BenchmarkX 10 2000 ns/op\nBenchmarkX 10 1000 ns/op\nBenchmarkX 10 1500 ns/op\n"
	entries, _, err := parseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].NsPerOp != 1000 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestParseGoBenchRejectsMalformed(t *testing.T) {
	if _, _, err := parseGoBench(strings.NewReader("BenchmarkX 10 12 ns/op trailing\n")); err == nil {
		t.Fatal("odd field count accepted")
	}
	if _, _, err := parseGoBench(strings.NewReader("BenchmarkX 10 12 B/op\n")); err == nil {
		t.Fatal("missing ns/op accepted")
	}
}

func TestComputeSpeedups(t *testing.T) {
	entries, _ := parseSample(t)
	sp := computeSpeedups(entries)
	// SSAMultiStart and EstimateSet have jobs=1+jobs=4 pairs; CityBlock
	// has only jobs=1 (no ratio); Table1 has no jobs suffix at all.
	if len(sp) != 2 {
		t.Fatalf("speedups = %+v", sp)
	}
	if sp[0].Kernel != "SSAMultiStart" || sp[0].Jobs != 4 {
		t.Fatalf("speedups[0] = %+v", sp[0])
	}
	want := 41204503.0 / 12918877.0
	if diff := sp[0].Factor - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("factor = %v, want %v", sp[0].Factor, want)
	}
	if sp[1].Kernel != "EstimateSet" || sp[1].Factor < 3 {
		t.Fatalf("speedups[1] = %+v", sp[1])
	}
}

func TestCompare(t *testing.T) {
	baseline := &benchFile{Entries: []benchEntry{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
		{Name: "Retired", NsPerOp: 1000},
	}}
	current := &benchFile{Entries: []benchEntry{
		{Name: "A", NsPerOp: 1200},  // within a 25% tolerance
		{Name: "B", NsPerOp: 1600},  // regressed
		{Name: "New", NsPerOp: 999}, // no baseline: ignored
	}}
	regs := compare(baseline, current, 0.25)
	if len(regs) != 1 || regs[0].Name != "B" {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].Ratio != 1.6 {
		t.Fatalf("ratio = %v", regs[0].Ratio)
	}
	if !strings.Contains(regs[0].String(), "regression") {
		t.Fatalf("String() = %q", regs[0].String())
	}
	if regs := compare(baseline, current, 0.7); len(regs) != 0 {
		t.Fatalf("tolerant compare found %+v", regs)
	}
}

func TestHostComparable(t *testing.T) {
	a := benchHost{GOOS: "linux", GOARCH: "amd64", NumCPU: 8, CPU: "Xeon"}
	if !a.matches(a) {
		t.Fatal("host not comparable to itself")
	}
	b := a
	b.NumCPU = 1
	if a.matches(b) {
		t.Fatal("different CPU counts comparable")
	}
	c := a
	c.CPU = "" // unknown CPU model: platform+count still decide
	if !a.matches(c) {
		t.Fatal("missing CPU model should not block comparison")
	}
	d := a
	d.CPU = "EPYC"
	if a.matches(d) {
		t.Fatal("different CPU models comparable")
	}
}

func TestFileRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	entries, host := parseSample(t)
	f := &benchFile{Date: "2026-08-05", Host: host, Entries: entries, Speedups: computeSpeedups(entries)}
	for _, name := range []string{"BENCH_2026-07-01.json", "BENCH_2026-08-05.json"} {
		if err := f.write(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	// Distractors the baseline scan must skip.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_zz.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != "BENCH_2026-08-05.json" {
		t.Fatalf("latest = %q", latest)
	}
	got, err := readBenchFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != f.Date || len(got.Entries) != len(f.Entries) || got.Host != f.Host {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Speedups) != 2 {
		t.Fatalf("speedups = %+v", got.Speedups)
	}
}

func TestLatestBaselineEmpty(t *testing.T) {
	latest, err := latestBaseline(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if latest != "" {
		t.Fatalf("latest = %q, want empty", latest)
	}
}
