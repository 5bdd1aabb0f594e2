package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coplot/internal/service"
)

// TestMain runs the CLI itself when COPLOT_MAIN_ARGS is set (one
// argument per line), so a test can check main's exit status in a
// child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("COPLOT_MAIN_ARGS"); ok {
		os.Args = append([]string{"coplot"}, strings.Split(args, "\n")...)
		main()
	}
	os.Exit(m.Run())
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSV(t *testing.T) {
	path := writeFile(t, "d.csv", "name,x,y\na,1,2\nb,3,4\nc,5,6\nd,7,9\n")
	ds, err := loadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) != 4 || len(ds.Variables) != 2 {
		t.Fatalf("shape %dx%d", len(ds.Observations), len(ds.Variables))
	}
	if ds.X[3][1] != 9 {
		t.Fatalf("cell = %v", ds.X[3][1])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	tooFew := writeFile(t, "few.csv", "name,x\na,1\nb,2\n")
	if _, err := loadCSV(tooFew); err == nil {
		t.Fatal("too few rows accepted")
	}
	garbage := writeFile(t, "bad.csv", "name,x\na,1\nb,two\nc,3\nd,4\n")
	if _, err := loadCSV(garbage); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	if _, err := loadCSV(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadSWFDataset(t *testing.T) {
	row := "1 0 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n" +
		"2 50 0 200 2 -1 -1 2 -1 -1 1 2 1 2 1 -1 -1 -1\n" +
		"3 90 0 50 8 -1 -1 8 -1 -1 1 1 1 1 1 -1 -1 -1\n"
	var paths []string
	for _, n := range []string{"a.swf", "b.swf", "c.swf"} {
		paths = append(paths, writeFile(t, n, row))
	}
	ds, err := loadSWF(paths, loadOptions{procs: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) != 3 {
		t.Fatalf("observations = %d", len(ds.Observations))
	}
	if len(ds.Variables) != len(service.SWFDatasetVars) {
		t.Fatalf("variables = %d", len(ds.Variables))
	}
	// Parallel loading returns the same dataset in the same order.
	ds4, err := loadSWF(paths, loadOptions{procs: 128, jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Observations {
		if ds.Observations[i] != ds4.Observations[i] {
			t.Fatalf("row order differs at %d", i)
		}
		for j := range ds.X[i] {
			if ds.X[i][j] != ds4.X[i][j] {
				t.Fatalf("cell (%d,%d) differs between jobs=1 and jobs=4", i, j)
			}
		}
	}
}

func TestLoadSWFMissingFile(t *testing.T) {
	row := "1 0 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n"
	paths := []string{writeFile(t, "a.swf", row), writeFile(t, "b.swf", row), "missing.swf"}
	if _, err := loadSWF(paths, loadOptions{procs: 128, jobs: 2}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadDatasetDispatch(t *testing.T) {
	if _, err := loadDataset("", nil, loadOptions{procs: 128}); err == nil {
		t.Fatal("no input accepted")
	}
	csv := writeFile(t, "d.csv", "name,x\na,1\nb,2\nc,3\n")
	if _, err := loadDataset(csv, []string{"x.swf"}, loadOptions{procs: 128}); err == nil {
		t.Fatal("both inputs accepted")
	}
}

// TestCacheKeyFor pins the report-cache keying: deterministic over
// identical inputs, sensitive to content and options, and refusing the
// cases the cache must not serve.
func TestCacheKeyFor(t *testing.T) {
	csv := writeFile(t, "m.csv", "name,x,y\na,1,2\nb,3,4\nc,5,6\n")
	k1, ok := cacheKeyFor(csv, nil, 0.7, "", 7, 128, 0)
	if !ok {
		t.Fatal("readable input rejected")
	}
	k2, _ := cacheKeyFor(csv, nil, 0.7, "", 7, 128, 0)
	if k1 != k2 {
		t.Fatal("same inputs keyed differently")
	}
	if k3, _ := cacheKeyFor(csv, nil, 0.8, "", 7, 128, 0); k3 == k1 {
		t.Fatal("prune change did not change the key")
	}
	if k4, _ := cacheKeyFor(csv, nil, 0.7, "", 8, 128, 0); k4 == k1 {
		t.Fatal("seed change did not change the key")
	}
	if k6, _ := cacheKeyFor(csv, nil, 0.7, "", 7, 128, 50); k6 == k1 {
		t.Fatal("landmark change did not change the key")
	}
	if err := os.WriteFile(csv, []byte("name,x,y\na,9,9\nb,3,4\nc,5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if k5, _ := cacheKeyFor(csv, nil, 0.7, "", 7, 128, 0); k5 == k1 {
		t.Fatal("content change did not change the key")
	}

	if _, ok := cacheKeyFor(csv, []string{"x.swf"}, 0, "", 7, 128, 0); ok {
		t.Fatal("mixed csv+swf arguments must not key")
	}
	if _, ok := cacheKeyFor(filepath.Join(t.TempDir(), "none.csv"), nil, 0, "", 7, 128, 0); ok {
		t.Fatal("unreadable input must not key")
	}
}

// TestNegativeLandmarksIsUsageError: a negative -landmarks exits 2
// naming the flag, instead of analyzing as if it were 0.
func TestNegativeLandmarksIsUsageError(t *testing.T) {
	csv := writeFile(t, "d.csv", "name,x,y\na,1,2\nb,3,4\nc,5,6\nd,7,9\n")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "COPLOT_MAIN_ARGS=-landmarks\n-1\n-csv\n"+csv)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-landmarks") {
		t.Fatalf("coplot -landmarks -1: %v\n%s", err, out)
	}
}
