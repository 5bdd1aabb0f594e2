package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"coplot/internal/doccheck"
	"coplot/internal/engine"
	"coplot/internal/models"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/swf"
)

// TestMain runs the CLI itself when HURST_MAIN_ARGS is set (one argument
// per line), so a test can read main's output in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HURST_MAIN_ARGS"); ok {
		os.Args = append([]string{"hurst"}, strings.Split(args, "\n")...)
		main()
	}
	os.Exit(m.Run())
}

func writeTestLog(t *testing.T) string {
	t.Helper()
	log := models.NewLublin(128).Generate(rng.New(1), 2000)
	path := filepath.Join(t.TempDir(), "test.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := swf.Write(f, log); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEstimateWritesDiagnostics(t *testing.T) {
	path := writeTestLog(t)
	svgDir := t.TempDir()
	text, err := estimate(context.Background(), path, svgDir, par.NewBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "series") || !strings.Contains(text, "2000 jobs") {
		t.Fatalf("report = %q", text)
	}
	entries, err := os.ReadDir(svgDir)
	if err != nil {
		t.Fatal(err)
	}
	// 4 series × 3 diagnostics.
	if len(entries) != 12 {
		t.Fatalf("diagnostic files = %d, want 12", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".svg") {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

func TestEstimateMissingFile(t *testing.T) {
	if _, err := estimate(context.Background(), filepath.Join(t.TempDir(), "none.swf"), "", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEstimateAllContinuesPastErrors(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	reports := estimateAll([]string{good, missing, good}, "", engine.Options{Jobs: 2, KeepGoing: true})
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].err != nil || reports[2].err != nil {
		t.Fatalf("good files failed: %v, %v", reports[0].err, reports[2].err)
	}
	if reports[1].err == nil {
		t.Fatal("missing file produced no error")
	}
	if reports[0].text != reports[2].text {
		t.Fatal("identical inputs produced different reports")
	}
}

// finishSink closes done once n tasks have finished, and holds the
// task.start of the task named hold until then.
type finishSink struct {
	hold string
	mu   sync.Mutex
	n    int
	done chan struct{}
}

// Event implements obs.Sink.
func (s *finishSink) Event(e obs.Event) {
	switch {
	case e.Kind == obs.KindTaskStart && e.Name == s.hold:
		<-s.done
	case e.Kind == obs.KindTaskFinish:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.n--; s.n == 0 {
			close(s.done)
		}
	}
}

// TestEstimateAllFailFastKeepsCompletedReports: with KeepGoing off the
// first failure cancels the batch, but files that were estimated keep
// their reports and only the failing file carries an error. The
// missing file's start waits until the three good files have finished,
// so they are done before the failure cancels the batch.
func TestEstimateAllFailFastKeepsCompletedReports(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	paths := []string{good, good, missing, good}
	sink := &finishSink{hold: missing, n: 3, done: make(chan struct{})}
	opts := engine.Options{Jobs: len(paths), Sink: sink}
	reports := estimateAll(paths, "", opts)
	want, err := estimate(context.Background(), good, "", par.NewBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if i == 2 {
			if !errors.Is(rep.err, fs.ErrNotExist) {
				t.Fatalf("missing file: err %v, want its own not-exist error", rep.err)
			}
			continue
		}
		if rep.err != nil || rep.text != want {
			t.Fatalf("report %d, estimated before the failure: err %v, text %q", i, rep.err, rep.text)
		}
	}
}

// TestEstimateAllFailFastInArgumentOrder: at one worker with KeepGoing
// off, files run in argument order, so the batch stops at the first
// failing argument: the file before it keeps its report, the failing
// file carries its own error, and the file after it never runs and
// carries the batch error.
func TestEstimateAllFailFastInArgumentOrder(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	reports := estimateAll([]string{good, missing, good}, "", engine.Options{Jobs: 1})
	want, err := estimate(context.Background(), good, "", par.NewBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].err != nil || reports[0].text != want {
		t.Fatalf("file 0: err %v, text %q; want its report", reports[0].err, reports[0].text)
	}
	own := reports[1].err
	if !errors.Is(own, fs.ErrNotExist) || strings.HasPrefix(own.Error(), "engine: ") {
		t.Fatalf("file 1: err %v, want its own not-exist error", own)
	}
	if batch := "engine: " + missing + ": " + own.Error(); reports[2].err == nil || reports[2].err.Error() != batch {
		t.Fatalf("file 2: err %v, want the batch error %q", reports[2].err, batch)
	}
}

func TestEstimateAllParallelDeterministic(t *testing.T) {
	paths := []string{writeTestLog(t), writeTestLog(t), writeTestLog(t)}
	serial := estimateAll(paths, "", engine.Options{Jobs: 1, KeepGoing: true})
	parallel := estimateAll(paths, "", engine.Options{Jobs: 4, KeepGoing: true})
	for i := range serial {
		if serial[i].text != parallel[i].text {
			t.Fatalf("report %d differs between jobs=1 and jobs=4", i)
		}
	}
}

// TestEngineFlagTableMatchesFlags: every ✓ in the `hurst` column of
// README's "Engine flags" table names a flag hurst registers, so a
// deleted flag cannot leave its row behind.
func TestEngineFlagTableMatchesFlags(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HURST_MAIN_ARGS=-h")
	usage, _ := cmd.CombinedOutput() // -h exits after printing the flag defaults
	violations, err := doccheck.CheckFlagTable("../../README.md", "hurst", usage)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
