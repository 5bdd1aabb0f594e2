package experiments

import (
	"context"
	"testing"

	"coplot/internal/engine"
	"coplot/internal/store"
)

// cacheTestConfig keeps the cached experiment cheap.
func cacheTestConfig() Config {
	return Config{Jobs: 1024, ModelJobs: 800, PeriodJobs: 512, Seed: 5}
}

// TestRunWarmCache proves the cross-invocation experiment cache: a
// second Run over a reopened disk backend — as a second CLI process
// would see it — returns the identical output while executing nothing.
func TestRunWarmCache(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	ctx := context.Background()

	cache, err := store.NewDisk(dir, OutputCodec{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(ctx, "table1", cfg, RunOptions{Options: engine.Options{Jobs: 2}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	cache2, err := store.NewDisk(dir, OutputCodec{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(ctx, "table1", cfg, RunOptions{Options: engine.Options{Jobs: 2}, Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Text != cold.Text || warm.Name != cold.Name || len(warm.Checks) != len(cold.Checks) {
		t.Fatal("cached output differs from computed output")
	}
	st := cache2.Stats()
	if st[0].Hits != 1 {
		t.Fatalf("disk hits = %d, want 1", st[0].Hits)
	}

	// A different seed misses: the key folds in the configuration.
	other := cacheTestConfig()
	other.Seed = 6
	if k1, k2 := experimentKey("table1", cfg), experimentKey("table1", other); k1 == k2 {
		t.Fatal("seed change did not change the experiment key")
	}
}
