package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"coplot/internal/models"
	"coplot/internal/rng"
)

// TestSnapshotJSONDeterministic replays one chunk sequence through two
// fresh streams and requires byte-identical snapshot JSON at every
// version — the no-map-iteration-anywhere regression test backing the
// SSE endpoint's determinism claim.
func TestSnapshotJSONDeterministic(t *testing.T) {
	run := func() [][]byte {
		s, err := New(Config{Name: "det", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		corpus := []struct {
			name  string
			lines [][]byte
		}{
			{"m96", jobLines(t, models.NewFeitelson96(128).Generate(rng.New(31), 120))},
			{"downey", jobLines(t, models.NewDowney(128).Generate(rng.New(32), 120))},
			{"jann", jobLines(t, models.NewJann(128).Generate(rng.New(33), 120))},
			{"lublin", jobLines(t, models.NewLublin(128).Generate(rng.New(34), 120))},
		}
		for c := 0; c < 4; c++ {
			for _, obs := range corpus {
				lo, hi := c*len(obs.lines)/4, (c+1)*len(obs.lines)/4
				snap, err := s.Append(context.Background(), obs.name, bytes.Join(obs.lines[lo:hi], nil))
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, b)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("snapshot %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}
