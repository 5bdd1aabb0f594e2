package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coplot/internal/machine"
	"coplot/internal/validate"
)

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.swf")
	content := "; test\n" +
		"1 0 0 10 4 8 -1 4 20 -1 1 1 1 1 1 -1 -1 -1\n" +
		"2 30 0 10 500 -1 -1 500 20 -1 1 2 1 2 1 -1 -1 -1\n" // oversized
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m := machine.Machine{Name: "t", Procs: 128,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	errs, err := checkFile(io.Discard, path, m, validate.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if errs == 0 {
		t.Fatal("oversized job not counted as error")
	}
}

func TestCheckFileMissing(t *testing.T) {
	m := machine.Machine{Name: "t", Procs: 128,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	if _, err := checkFile(io.Discard, filepath.Join(t.TempDir(), "none.swf"), m, validate.Options{}, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestNonPositiveProcsFails runs the command with -procs 0: it must
// exit 2 with an error message before reading any log, not panic.
func TestNonPositiveProcsFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.swf")
	if err := os.WriteFile(path, []byte("1 0 0 10 4 8 -1 4 20 -1 1 1 1 1 1 -1 -1 -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-procs", "0", path}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "swfcheck: ") || stdout.Len() != 0 {
		t.Fatalf("exit %d, stderr %q, %d stdout bytes", code, stderr.String(), stdout.Len())
	}
}
