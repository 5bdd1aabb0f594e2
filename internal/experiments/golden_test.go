package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"coplot/internal/engine"
)

// TestGoldenOutputs regenerates every committed artifact in out/ through
// the engine at default (paper) scale and diffs the bytes. This is a
// tier-2 guard: it takes a few seconds and, because floating-point
// contraction can differ across architectures, it only runs when
// COPLOT_GOLDEN=1 is set (CI sets it on the reference platform).
func TestGoldenOutputs(t *testing.T) {
	if os.Getenv("COPLOT_GOLDEN") != "1" {
		t.Skip("set COPLOT_GOLDEN=1 to diff regenerated artifacts against out/")
	}
	goldenDir := filepath.Join("..", "..", "out")
	if _, err := os.Stat(goldenDir); err != nil {
		t.Skipf("no committed artifacts: %v", err)
	}
	outs, err := RunAll(context.Background(), Config{}, RunOptions{Options: engine.Options{Jobs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, o := range outs {
		compare := func(ext, got string) {
			path := filepath.Join(goldenDir, o.Name+ext)
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checked++
			if got != string(want) {
				t.Errorf("%s%s: regenerated artifact differs from committed golden", o.Name, ext)
			}
		}
		compare(".txt", o.Text)
		if o.SVG != "" {
			compare(".svg", o.SVG)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d artifacts compared; golden directory incomplete?", checked)
	}
}
