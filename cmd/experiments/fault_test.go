package main

// CLI-level fault-tolerance acceptance tests: -keep-going degrades a
// poisoned run — non-zero exit, failure summary naming exactly the
// failed experiment and its skipped dependents, untouched outputs for
// every unaffected experiment — and an injected panic becomes a typed
// task error.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coplot/internal/obs"
)

// readArtifact loads one .txt artifact from an -out directory.
func readArtifact(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func taskRecord(t *testing.T, m *obs.Manifest, name string) obs.TaskRecord {
	t.Helper()
	for _, task := range m.Tasks {
		if task.Name == name {
			return task
		}
	}
	t.Fatalf("manifest has no task %q", name)
	return obs.TaskRecord{}
}

func TestKeepGoingDegradedRun(t *testing.T) {
	// table3 is poisoned: fig5 (its dependent) must be
	// skipped, params3 (an independent subgraph) must complete with
	// bytes identical to a clean run, and the manifest must name
	// exactly the failed task and its skipped dependent.
	clean := t.TempDir()
	names := "table3,fig5,params3"
	args := append([]string{"-run", names, "-out", clean, "-manifest", ""}, smallArgs...)
	if err := run(args, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	degraded := t.TempDir()
	manifest := filepath.Join(degraded, "manifest.json")
	var stdout strings.Builder
	args = append([]string{
		"-run", names, "-out", degraded, "-manifest", manifest,
		"-inject", "table3=error", "-keep-going",
	}, smallArgs...)
	err := run(args, &stdout)
	if err == nil {
		t.Fatal("degraded run reported success (exit code would be 0)")
	}
	if !strings.Contains(err.Error(), "table3") {
		t.Fatalf("degradation error does not name the failed task: %v", err)
	}

	// The unaffected experiment completed, was reported, and its bytes
	// match the clean run's.
	if !strings.Contains(stdout.String(), "==== params3 ====") {
		t.Fatal("independent experiment missing from degraded-run output")
	}
	if string(readArtifact(t, clean, "params3")) != string(readArtifact(t, degraded, "params3")) {
		t.Fatal("degradation altered an unaffected experiment's artifact")
	}
	for _, name := range []string{"table3", "fig5"} {
		if _, err := os.Stat(filepath.Join(degraded, name+".txt")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("failed/skipped experiment %s left an artifact", name)
		}
	}

	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Failures
	if f == nil || !f.Degraded {
		t.Fatalf("manifest failure summary = %+v", f)
	}
	if len(f.Failed) != 1 || f.Failed[0] != "table3" {
		t.Fatalf("failed = %v, want exactly [table3]", f.Failed)
	}
	if len(f.Skipped) != 1 || f.Skipped[0] != "fig5" {
		t.Fatalf("skipped = %v, want exactly [fig5]", f.Skipped)
	}
	if rec := taskRecord(t, m, "fig5"); rec.Status != "skipped" || rec.Reason != obs.SkipReasonUpstreamFailed {
		t.Fatalf("fig5 record = %+v", rec)
	}
	if rec := taskRecord(t, m, "params3"); rec.Status != "ok" {
		t.Fatalf("params3 record = %+v", rec)
	}
}

func TestInjectedPanicBecomesTaskError(t *testing.T) {
	args := append([]string{
		"-run", "params3", "-manifest", "",
		"-inject", "table1=panic",
	}, smallArgs...)
	err := run(args, &strings.Builder{})
	if err == nil {
		t.Fatal("injected panic not surfaced")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("err = %v, want typed panic error naming table1", err)
	}
}

func TestInjectBadSpecRejected(t *testing.T) {
	err := run([]string{"-inject", "a=explode", "-manifest", ""}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "fault kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCommaSeparatedNames(t *testing.T) {
	var b strings.Builder
	args := append([]string{"-run", "params3,fig1", "-manifest", ""}, smallArgs...)
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	for _, banner := range []string{"==== params3 ====", "==== fig1 ====", "==== summary ===="} {
		if !strings.Contains(b.String(), banner) {
			t.Fatalf("missing %q in output", banner)
		}
	}
}
