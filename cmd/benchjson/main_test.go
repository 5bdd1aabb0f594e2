package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakeOutput renders go-test bench output whose host headers match the
// running machine, so baselines written from it gate strictly.
func fakeOutput(ssaNs, estNs int) string {
	return fmt.Sprintf(`goos: %s
goarch: %s
BenchmarkSSAMultiStart/jobs=1 10 %d ns/op
BenchmarkSSAMultiStart/jobs=4 10 %d ns/op
BenchmarkEstimateSet/jobs=1 10 %d ns/op
PASS
`, runtime.GOOS, runtime.GOARCH, ssaNs, ssaNs/2, estNs)
}

func writeInput(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestWriteAndCompareClean(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, "bench.txt", fakeOutput(1000, 500))
	code, out, errOut := runCLI(t, "-input", in, "-out", dir, "-date", "2026-01-01")
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "no previous baseline") {
		t.Fatalf("out = %q", out)
	}
	f, err := readBenchFile(filepath.Join(dir, "BENCH_2026-01-01.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 3 || len(f.Speedups) != 1 {
		t.Fatalf("file = %+v", f)
	}
	if f.Speedups[0].Factor != 2 {
		t.Fatalf("speedup = %+v", f.Speedups[0])
	}

	// A same-speed second run compares clean against the first file.
	code, out, errOut = runCLI(t, "-input", in, "-out", dir, "-date", "2026-01-02")
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("out = %q", out)
	}
}

func TestRegressionGates(t *testing.T) {
	dir := t.TempDir()
	base := writeInput(t, dir, "base.txt", fakeOutput(1000, 500))
	if code, out, errOut := runCLI(t, "-input", base, "-out", dir, "-date", "2026-01-01"); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out, errOut)
	}
	// 2x slower than baseline, far beyond the 25% default tolerance.
	slow := writeInput(t, dir, "slow.txt", fakeOutput(2000, 1000))
	code, _, errOut := runCLI(t, "-input", slow, "-out", dir, "-date", "2026-01-02")
	if code != 1 {
		t.Fatalf("regressed run exited %d", code)
	}
	if !strings.Contains(errOut, "regression") {
		t.Fatalf("stderr = %q", errOut)
	}
	// A generous tolerance lets the same numbers through.
	code, out, errOut := runCLI(t, "-input", slow, "-out", dir, "-date", "2026-01-03", "-tolerance", "1.5")
	if code != 0 {
		t.Fatalf("tolerant run exited %d: %s", code, errOut)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("out = %q", out)
	}
}

func TestHostMismatchIsAdvisory(t *testing.T) {
	dir := t.TempDir()
	// A baseline measured on a fictional other machine.
	other := benchHost{GOOS: "plan9", GOARCH: "riscv64", NumCPU: 1024, GoVersion: "go1.22"}
	base := &benchFile{Date: "2026-01-01", Host: other, Entries: []benchEntry{
		{Name: "SSAMultiStart/jobs=1", Iters: 10, NsPerOp: 1},
	}}
	if err := base.write(filepath.Join(dir, "BENCH_2026-01-01.json")); err != nil {
		t.Fatal(err)
	}
	slow := writeInput(t, dir, "slow.txt", fakeOutput(1000, 500))
	code, out, _ := runCLI(t, "-input", slow, "-out", dir, "-date", "2026-01-02")
	if code != 0 {
		t.Fatalf("host-mismatched comparison exited %d", code)
	}
	if !strings.Contains(out, "advisory") {
		t.Fatalf("out = %q", out)
	}
	// -strict-host turns the same comparison into a failure.
	code, _, errOut := runCLI(t, "-input", slow, "-out", dir, "-date", "2026-01-03", "-strict-host",
		"-baseline", filepath.Join(dir, "BENCH_2026-01-01.json"))
	if code != 1 {
		t.Fatalf("strict-host run exited %d: %s", code, errOut)
	}
}

func TestNoBenchmarksMatched(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir, "empty.txt", "PASS\nok coplot 0.1s\n")
	code, _, errOut := runCLI(t, "-input", in, "-out", dir)
	if code != 1 || !strings.Contains(errOut, "no benchmarks") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}
