package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"coplot/internal/engine"
	"coplot/internal/models"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/store"
	"coplot/internal/swf"
)

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
	text, err := estimate(context.Background(), path, svgDir, nil, par.NewBudget(2))
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
	if _, err := estimate(context.Background(), filepath.Join(t.TempDir(), "none.swf"), "", nil, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEstimateAllContinuesPastErrors(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	reports := estimateAll([]string{good, missing, good}, "", nil, engine.Options{Jobs: 2, KeepGoing: true})
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

// finishSink closes done once n tasks have finished.
type finishSink struct {
	mu   sync.Mutex
	n    int
	done chan struct{}
}

// Event implements obs.Sink.
func (s *finishSink) Event(e obs.Event) {
	if e.Kind != obs.KindTaskFinish {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n--; s.n == 0 {
		close(s.done)
	}
}

// TestEstimateAllFailFastKeepsCompletedReports: with KeepGoing off the
// first failure cancels the batch, but files that were estimated keep
// their reports and only the failing file carries an error. The
// missing file's retry waits until the three good files have finished,
// so they are done before the failure cancels the batch.
func TestEstimateAllFailFastKeepsCompletedReports(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	paths := []string{good, good, missing, good}
	sink := &finishSink{n: 3, done: make(chan struct{})}
	opts := engine.Options{Jobs: len(paths), Sink: sink, Retry: engine.RetryPolicy{
		MaxAttempts: 2,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			select {
			case <-sink.done:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}}
	reports := estimateAll(paths, "", nil, opts)
	want, err := estimate(context.Background(), good, "", nil, par.NewBudget(1))
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

func TestEstimateAllParallelDeterministic(t *testing.T) {
	paths := []string{writeTestLog(t), writeTestLog(t), writeTestLog(t)}
	serial := estimateAll(paths, "", nil, engine.Options{Jobs: 1, KeepGoing: true})
	parallel := estimateAll(paths, "", nil, engine.Options{Jobs: 4, KeepGoing: true})
	for i := range serial {
		if serial[i].text != parallel[i].text {
			t.Fatalf("report %d differs between jobs=1 and jobs=4", i)
		}
	}
}

// TestEstimateWarmCache proves the cross-invocation cache: a second
// estimate of the same file over the same disk backend — a fresh
// backend instance, as a second CLI process would open — returns the
// identical report from the cache without recomputing.
func TestEstimateWarmCache(t *testing.T) {
	path := writeTestLog(t)
	dir := t.TempDir()
	cache, err := store.NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := estimate(context.Background(), path, "", cache, par.NewBudget(1))
	if err != nil {
		t.Fatal(err)
	}

	// "Second invocation": reopen the cache directory from scratch.
	cache2, err := store.NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := estimate(context.Background(), path, "", cache2, par.NewBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatal("cached report differs from computed report")
	}
	st := cache2.Stats()
	if st[0].Hits != 1 {
		t.Fatalf("disk hits = %d, want 1", st[0].Hits)
	}

	// A different file misses: the key folds in both the content and
	// the path (the report text embeds the path as its label).
	other := writeTestLog(t)
	data, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := estimate(context.Background(), other, "", cache2, par.NewBudget(1)); err != nil {
		t.Fatal(err)
	}
	st = cache2.Stats()
	if st[0].Misses == 0 {
		t.Fatal("changed content should miss")
	}
}
