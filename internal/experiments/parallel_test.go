package experiments

import (
	"context"
	"testing"
	"time"

	"coplot/internal/engine"
)

// smallCfg keeps the parallel-equivalence suite quick: the point is the
// byte comparison, not the calibration quality.
func smallCfg() Config {
	return Config{Jobs: 1024, ModelJobs: 800, PeriodJobs: 512, Seed: 5}
}

// TestRunAllParallelByteIdentical is the engine's core reproducibility
// guarantee: because every random stream is derived from Config.Seed
// (never drawn from shared mutable state) and shared artifacts are
// memoized, running the full suite on four workers produces exactly the
// bytes the serial run produces.
func TestRunAllParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	serial, err := RunAll(ctx, smallCfg(), RunOptions{Options: engine.Options{Jobs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(ctx, smallCfg(), RunOptions{Options: engine.Options{Jobs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("output counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name {
			t.Fatalf("output %d: order differs (%s vs %s)", i, s.Name, p.Name)
		}
		if s.Text != p.Text {
			t.Errorf("%s: text differs between serial and parallel runs", s.Name)
		}
		if s.SVG != p.SVG {
			t.Errorf("%s: SVG differs between serial and parallel runs", s.Name)
		}
	}
}

// TestRunSingleMatchesRunAll confirms a one-experiment run reproduces
// the same bytes as the same experiment inside the full suite.
func TestRunSingleMatchesRunAll(t *testing.T) {
	ctx := context.Background()
	all, err := RunAll(ctx, smallCfg(), RunOptions{Options: engine.Options{Jobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Output{}
	for _, o := range all {
		byName[o.Name] = o
	}
	for _, name := range []string{"table1", "fig4", "table3ci"} {
		o, err := Run(ctx, name, smallCfg(), RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Text != byName[name].Text {
			t.Errorf("%s: standalone run differs from suite run", name)
		}
	}
}

// TestRunRespectsTimeout exercises the per-experiment deadline through
// the public API.
func TestRunRespectsTimeout(t *testing.T) {
	_, err := Run(context.Background(), "paper", smallCfg(), RunOptions{Options: engine.Options{Timeout: time.Nanosecond}})
	if err == nil {
		t.Fatal("nanosecond timeout not enforced")
	}
}

// TestRunCancelledContext exercises caller-side cancellation through the
// public API.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, smallCfg(), RunOptions{Options: engine.Options{Jobs: 2}}); err == nil {
		t.Fatal("cancelled context not honored")
	}
}
