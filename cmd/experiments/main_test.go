package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coplot/internal/doccheck"
	"coplot/internal/obs"
)

// TestMain runs the CLI itself when EXPERIMENTS_MAIN_ARGS is set (one
// argument per line), so a test can read main's output in a child
// process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_MAIN_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
	}
	os.Exit(m.Run())
}

// smallArgs keeps the CLI suite fast; the point is the wiring, not the
// calibration quality (covered by internal/experiments).
var smallArgs = []string{
	"-sitejobs", "1024", "-modeljobs", "800", "-periodjobs", "512", "-seed", "5",
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	args := append([]string{"-run", "params3", "-manifest", ""}, smallArgs...)
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "==== params3 ====") {
		t.Fatalf("missing banner: %q", out)
	}
	if strings.Contains(out, "==== summary ====") {
		t.Fatal("single run should not print the suite summary")
	}
}

func TestRunAllWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	dir := t.TempDir()
	var b strings.Builder
	args := append([]string{"-run", "all", "-jobs", "2", "-out", dir,
		"-manifest", filepath.Join(dir, "manifest.json")}, smallArgs...)
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "==== summary ====") {
		t.Fatal("suite summary missing")
	}
	// Every experiment except the explicit-only seeds sweep leaves a .txt.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	txt := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".txt" {
			txt++
		}
	}
	if txt < 16 {
		t.Fatalf("artifacts written = %d, want >= 16", txt)
	}
	if _, err := os.Stat(filepath.Join(dir, "seeds.txt")); err == nil {
		t.Fatal("seeds sweep should only run when requested explicitly")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-run", "nope", "-manifest", ""}, &strings.Builder{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &strings.Builder{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// obsArgs runs the cheap params3 experiment with a manifest and trace
// under dir, returning the manifest path.
func obsArgs(dir string) []string {
	return append([]string{
		"-run", "params3", "-jobs", "1",
		"-manifest", filepath.Join(dir, "manifest.json"),
		"-trace", filepath.Join(dir, "trace.jsonl"),
	}, smallArgs...)
}

func TestRunWritesManifestAndTrace(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run(obsArgs(dir), &b); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "experiments" || m.Seed != 5 || m.Jobs != 1 {
		t.Fatalf("manifest header = %+v", m)
	}
	var params3 *obs.TaskRecord
	for i := range m.Tasks {
		if m.Tasks[i].Name == "params3" {
			params3 = &m.Tasks[i]
		}
	}
	if params3 == nil || params3.Status != "ok" || params3.ElapsedMS <= 0 {
		t.Fatalf("params3 record = %+v", params3)
	}
	if len(params3.Deps) != 1 || params3.Deps[0] != "table1" {
		t.Fatalf("params3 deps = %v", params3.Deps)
	}
	if m.Store.Lookups == 0 || m.Store.Misses == 0 {
		t.Fatalf("store stats empty: %+v", m.Store)
	}
	// The trace holds one JSON event per line, bracketed by run events.
	data, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 6 {
		t.Fatalf("trace too short: %d lines", len(lines))
	}
	for _, line := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
	}
	if !strings.Contains(string(data), string(obs.KindRunFinish)) {
		t.Fatal("trace lacks run.finish")
	}
}

// TestManifestDeterministicAcrossRuns is the CLI-level acceptance
// check: two runs with the same seed and -jobs produce manifests that
// differ only in elapsed/timestamp fields.
func TestManifestDeterministicAcrossRuns(t *testing.T) {
	stable := func() string {
		dir := t.TempDir()
		if err := run(obsArgs(dir), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(m.Stable(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first, second := stable(), stable()
	if first != second {
		t.Fatalf("stable manifests differ:\n%s\nvs\n%s", first, second)
	}
}

func TestReportRendersManifest(t *testing.T) {
	dir := t.TempDir()
	if err := run(obsArgs(dir), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-report", "-manifest", filepath.Join(dir, "manifest.json")}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"## Run report", "| params3 | table1 | ok |", "| table1 |", "artifact store:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestReportGolden pins the end-to-end -report rendering on a fixture
// manifest with frozen timings.
func TestReportGolden(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	fixture := `{
  "schema": 1,
  "tool": "experiments",
  "go_version": "go1.22.0",
  "seed": 19990401,
  "jobs": 2,
  "timeout": "0s",
  "started": "2026-08-05T12:00:00Z",
  "elapsed_ms": 1500,
  "tasks": [
    {"name": "fig1", "deps": ["table1"], "status": "ok", "elapsed_ms": 250},
    {"name": "table1", "status": "ok", "elapsed_ms": 1200}
  ],
  "store": {"lookups": 4, "misses": 2, "waits": 0, "hit_ratio": 0.5},
  "pool": {"capacity": 2, "max_in_use": 2, "samples": 4}
}`
	if err := os.WriteFile(manifest, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-report", "-manifest", manifest}, &b); err != nil {
		t.Fatal(err)
	}
	want := "## Run report — measured timings\n" +
		"\n" +
		"Generated from a `experiments` run manifest by `cmd/experiments -report`.\n" +
		"\n" +
		"- settings: seed 19990401, jobs 2, timeout 0s, go1.22.0\n" +
		"- total wall time: 1.50s across 2 tasks\n" +
		"- artifact store: 4 lookups, 2 misses (50% served from cache; 0 waited on an in-flight compute)\n" +
		"- worker pool: capacity 2, peak occupancy 2\n" +
		"\n" +
		"| experiment | depends on | status | wall time |\n" +
		"|---|---|---|---|\n" +
		"| table1 | — | ok | 1.20s |\n" +
		"| fig1 | table1 | ok | 250ms |\n"
	if b.String() != want {
		t.Fatalf("-report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestReportIntoUpdatesFile(t *testing.T) {
	dir := t.TempDir()
	if err := run(obsArgs(dir), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "EXPERIMENTS.md")
	if err := os.WriteFile(doc, []byte("# Experiments\n\nprose\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	for i := 0; i < 2; i++ { // twice: append, then idempotent replace
		err := run([]string{"-report", "-manifest", manifest, "-report-into", doc}, &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "prose") || strings.Count(string(data), obs.ReportBegin) != 1 {
		t.Fatalf("report-into mangled the doc:\n%s", data)
	}
}

func TestReportMissingManifest(t *testing.T) {
	err := run([]string{"-report", "-manifest", filepath.Join(t.TempDir(), "nope.json")}, &strings.Builder{})
	if err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// TestEngineFlagTableMatchesFlags: every ✓ in the `experiments` column
// of README's "Engine flags" table names a flag experiments registers,
// so a deleted flag cannot leave its row behind.
func TestEngineFlagTableMatchesFlags(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN_ARGS=-h")
	usage, _ := cmd.CombinedOutput() // -h exits after printing the flag defaults
	violations, err := doccheck.CheckFlagTable("../../README.md", "experiments", usage)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
