package stream

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"coplot/internal/core"
	"coplot/internal/mat"
	"coplot/internal/mds"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/sites"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// fixture is one named observation log of the equivalence corpus.
type fixture struct {
	name string
	log  *swf.Log
}

// equivalenceCorpus builds the fifteen-observation corpus of the
// equivalence suite: all five paper models plus the ten Table-1
// synthetic site twins (real-log stand-ins) — the paper's own analysis
// scale. A smaller corpus (the five models plus a couple of sites)
// turns out to be ill-posed for non-metric MDS: three of the models
// are nearly coincident in Co-plot space, and a seven-point problem
// with near-duplicates has a degenerate cluster-collapse attractor
// (alienation → 0 by merging the duplicates) that even the cold solver
// drifts toward. At fifteen observations the fit is honest and
// well-determined, which is what an equivalence contract needs.
func equivalenceCorpus(t testing.TB) []fixture {
	t.Helper()
	const procs, jobs = 128, 600
	fixtures := []fixture{
		{"feitelson96", models.NewFeitelson96(procs).Generate(rng.New(1), jobs)},
		{"feitelson97", models.NewFeitelson97(procs).Generate(rng.New(2), jobs)},
		{"downey", models.NewDowney(procs).Generate(rng.New(3), jobs)},
		{"jann", models.NewJann(procs).Generate(rng.New(4), jobs)},
		{"lublin", models.NewLublin(procs).Generate(rng.New(5), jobs)},
	}
	for _, spec := range sites.Table1Specs(2000) {
		log, err := spec.Generate(7)
		if err != nil {
			t.Fatalf("sites %s: %v", spec.Name, err)
		}
		fixtures = append(fixtures, fixture{spec.Name, log})
	}
	return fixtures
}

// jobLines serializes a log to one SWF text line per job.
func jobLines(t testing.TB, log *swf.Log) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := swf.Write(&buf, &swf.Log{Jobs: log.Jobs}); err != nil {
		t.Fatalf("swf.Write: %v", err)
	}
	var lines [][]byte
	for _, ln := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// chunked splits lines into k nearly equal consecutive chunks (fewer
// when there are fewer lines than k), each a parseable SWF fragment.
func chunked(lines [][]byte, k int) [][]byte {
	if k > len(lines) {
		k = len(lines)
	}
	out := make([][]byte, 0, k)
	for c := 0; c < k; c++ {
		lo, hi := c*len(lines)/k, (c+1)*len(lines)/k
		out = append(out, bytes.Join(lines[lo:hi], nil))
	}
	return out
}

// batchEmbed runs the one-shot batch pipeline — workload.Compute rows,
// BuildTable's mean substitution, core normalization, city-block
// dissimilarities, cold multi-start SSA — over the corpus, the ground
// truth the streamed embeddings must land on. It also returns the
// batch dissimilarity matrix for the cold-iteration probe.
func batchEmbed(t testing.TB, fixtures []fixture, seed uint64) (mds.Result, *mat.Matrix) {
	t.Helper()
	cfg := Config{}.withDefaults()
	var rows []workload.Variables
	for _, fx := range fixtures {
		v, err := workload.Compute(fx.name, fx.log, cfg.Machine)
		if err != nil {
			t.Fatalf("workload.Compute(%s): %v", fx.name, err)
		}
		rows = append(rows, v)
	}
	tab, err := workload.BuildTable(rows, workload.DatasetVars)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	ds := &core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data}
	z := core.Normalize(ds)
	d := core.CityBlockWith(z, nil)
	fit, err := mds.SSAContext(context.Background(), d, mds.Options{Seed: seed})
	if err != nil {
		t.Fatalf("batch SSA: %v", err)
	}
	return fit, d
}

// streamed replays the corpus through a fresh stream, every
// observation split into k chunks, appended round-robin. It returns
// the final snapshot and the per-append snapshots.
func streamed(t testing.TB, fixtures []fixture, k int, seed uint64) (*Snapshot, []*Snapshot) {
	t.Helper()
	s, err := New(Config{Name: "eq", Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	chunks := make([][][]byte, len(fixtures))
	for i, fx := range fixtures {
		chunks[i] = chunked(jobLines(t, fx.log), k)
	}
	var history []*Snapshot
	var last *Snapshot
	for c := 0; c < k; c++ {
		for i, fx := range fixtures {
			if c >= len(chunks[i]) {
				continue
			}
			snap, err := s.Append(context.Background(), fx.name, chunks[i][c])
			if err != nil {
				t.Fatalf("Append(%s, chunk %d): %v", fx.name, c, err)
			}
			history = append(history, snap)
			last = snap
		}
	}
	return last, history
}

// relativeRMSD Procrustes-aligns got onto want — scale included, since
// stream snapshots live in the dissimilarity gauge while a cold batch
// solve keeps the gauge of its classical-scaling seed — and returns the
// RMSD relative to want's RMS radius: the gauge-free map discrepancy
// the suite thresholds.
func relativeRMSD(t testing.TB, want mds.Result, got *Snapshot) float64 {
	t.Helper()
	if got.Status != StatusOK {
		t.Fatalf("final snapshot status %q (%s), want ok", got.Status, got.Error)
	}
	if len(got.Points) != want.Config.Rows {
		t.Fatalf("snapshot has %d points, batch %d", len(got.Points), want.Config.Rows)
	}
	// Snapshot points are in stream row order = append order = fixture
	// order, matching the batch table's row order by construction.
	cfg := mat.New(len(got.Points), 2)
	for i, p := range got.Points {
		cfg.Set(i, 0, p.X)
		cfg.Set(i, 1, p.Y)
	}
	if r := mds.RMSRadius(cfg); r > 0 {
		f := mds.RMSRadius(want.Config) / r
		for k := range cfg.Data {
			cfg.Data[k] *= f
		}
	}
	_, rmsd, err := mds.Align(want.Config, cfg)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	return rmsd / mds.RMSRadius(want.Config)
}

// TestEquivalenceAcrossChunkings is the tentpole's correctness
// contract: a corpus streamed in K chunks per observation — for every
// K — ends, after Procrustes alignment, within a tight tolerance of
// the one-shot batch embedding, and the warm-started updates that got
// it there each spent measurably fewer SMACOF iterations than the
// batch cold solve (asserted through Options.Trace).
func TestEquivalenceAcrossChunkings(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence corpus generation is slow")
	}
	fixtures := equivalenceCorpus(t)
	const seed = 42
	batch, batchD := batchEmbed(t, fixtures, seed)

	// Total iterations of the batch cold solve across all its starts,
	// via the solver's Trace hook: the bar warm updates must beat.
	coldIters := 0
	if _, err := mds.SSAContext(context.Background(), batchD, mds.Options{Seed: seed, Trace: func(start, iter int, stress float64) {
		coldIters++
	}}); err != nil {
		t.Fatalf("traced cold SSA: %v", err)
	}
	if coldIters == 0 {
		t.Fatal("trace observed no cold iterations")
	}

	// Tolerance: the warm path tracks a re-sorting rank-image target,
	// so successive solves slide along near-flat stress valleys; the
	// maps agree in structure, not bitwise. Empirically the aligned
	// relative RMSD stays well under this bound for every K.
	const tol = 0.15

	for _, k := range []int{1, 2, 8, 32} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			last, history := streamed(t, fixtures, k, seed)
			if rel := relativeRMSD(t, batch, last); rel > tol {
				t.Errorf("K=%d: aligned relative RMSD %.4f > %.2f", k, rel, tol)
			}
			if last.Alienation > batch.Alienation+0.05 {
				t.Errorf("K=%d: streamed alienation %.4f far above batch %.4f",
					k, last.Alienation, batch.Alienation)
			}
			if k == 1 {
				return
			}
			// After the observation set stabilizes, warm updates must
			// exist and every accepted warm descent must beat the cold
			// solve's total iteration bill across its multi-start
			// fan-out — the measurable speed contract of warm-starting.
			// (This replay is deliberately adversarial for the warm
			// fraction itself: mid-stream a growing log's medians are
			// restless and the gate re-anchors conservatively. The
			// steady-state test below is where warm dominance is
			// asserted.)
			warmCount, coldCount, warmIters := 0, 0, 0
			for _, snap := range history[len(fixtures):] {
				if snap.Status != StatusOK {
					continue
				}
				if !snap.Warm {
					coldCount++
					continue
				}
				warmCount++
				warmIters += snap.Iterations
				if snap.Iterations >= coldIters {
					t.Errorf("K=%d: warm update at version %d took %d iterations, cold solve total %d",
						k, snap.Version, snap.Iterations, coldIters)
				}
			}
			if warmCount == 0 {
				t.Fatalf("K=%d: no warm update observed", k)
			}
			t.Logf("K=%d: %d warm (mean %.0f iters), %d cold re-anchors, cold solve total %d iters",
				k, warmCount, float64(warmIters)/float64(warmCount), coldCount, coldIters)
		})
	}
}

// TestSteadyStateWarmDominance is the warm path's speed contract in
// the regime warm-starting exists for: a stream whose observation set
// is stable and whose per-append statistics deltas are small (the tail
// of each log arriving in many tiny chunks after a bulk load). There
// the gate must accept warm descents essentially always, and each must
// cost an order of magnitude fewer SMACOF iterations than the cold
// multi-start's total bill, measured through Options.Trace.
func TestSteadyStateWarmDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence corpus generation is slow")
	}
	fixtures := equivalenceCorpus(t)
	const seed = 42
	_, batchD := batchEmbed(t, fixtures, seed)
	coldIters := 0
	if _, err := mds.SSAContext(context.Background(), batchD, mds.Options{Seed: seed, Trace: func(start, iter int, stress float64) {
		coldIters++
	}}); err != nil {
		t.Fatalf("traced cold SSA: %v", err)
	}

	s, err := New(Config{Name: "steady", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Bulk-load 95% of every log, then stream the last 5% in ten tiny
	// chunks per observation, round-robin.
	tails := make([][][]byte, len(fixtures))
	for i, fx := range fixtures {
		lines := jobLines(t, fx.log)
		cut := len(lines) * 95 / 100
		if _, err := s.Append(context.Background(), fx.name, bytes.Join(lines[:cut], nil)); err != nil {
			t.Fatal(err)
		}
		tails[i] = chunked(lines[cut:], 10)
	}
	total, warm, warmIters := 0, 0, 0
	for c := 0; c < 10; c++ {
		for i, fx := range fixtures {
			if c >= len(tails[i]) {
				continue
			}
			snap, err := s.Append(context.Background(), fx.name, tails[i][c])
			if err != nil {
				t.Fatal(err)
			}
			if snap.Status != StatusOK {
				t.Fatalf("steady-state append %s/%d: status %q (%s)", fx.name, c, snap.Status, snap.Error)
			}
			total++
			if !snap.Warm {
				t.Logf("cold re-anchor at version %d: %s", snap.Version, snap.Reanchor)
				continue
			}
			warm++
			warmIters += snap.Iterations
		}
	}
	if warm*10 < total*9 {
		t.Fatalf("only %d of %d steady-state appends warm-started", warm, total)
	}
	mean := float64(warmIters) / float64(warm)
	if mean*10 > float64(coldIters) {
		t.Fatalf("mean warm descent %.1f iterations, not measurably below cold total %d", mean, coldIters)
	}
	t.Logf("steady state: %d/%d warm, mean %.1f iters vs cold total %d", warm, total, mean, coldIters)
}

// TestAppendAtomicOnParseError feeds a torn chunk and checks the
// stream is untouched: same version, same snapshot, and a follow-up
// valid append succeeds from the pre-error state.
func TestAppendAtomicOnParseError(t *testing.T) {
	s, err := New(Config{Name: "atomic"})
	if err != nil {
		t.Fatal(err)
	}
	log := models.NewDowney(128).Generate(rng.New(9), 50)
	lines := jobLines(t, log)
	first, err := s.Append(context.Background(), "a", bytes.Join(lines[:25], nil))
	if err != nil {
		t.Fatalf("valid append: %v", err)
	}
	torn := append([]byte{}, lines[25][:len(lines[25])/2]...)
	if _, err := s.Append(context.Background(), "a", torn); err == nil {
		t.Fatal("torn chunk accepted")
	}
	if got := s.Latest(); got != first {
		t.Fatalf("snapshot changed after rejected append: version %d, want %d", got.Version, first.Version)
	}
	next, err := s.Append(context.Background(), "a", bytes.Join(lines[25:], nil))
	if err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	if next.Version != first.Version+1 {
		t.Fatalf("version %d after rejection, want %d", next.Version, first.Version+1)
	}
	if next.Jobs != len(log.Jobs) {
		t.Fatalf("jobs %d, want %d", next.Jobs, len(log.Jobs))
	}
}

// TestPendingBelowThreeObservations checks the pending status and the
// transition to a live embedding at the third observation.
func TestPendingBelowThreeObservations(t *testing.T) {
	s, err := New(Config{Name: "pending"})
	if err != nil {
		t.Fatal(err)
	}
	logs := []*swf.Log{
		models.NewFeitelson96(128).Generate(rng.New(11), 80),
		models.NewDowney(128).Generate(rng.New(12), 80),
		models.NewJann(128).Generate(rng.New(13), 80),
	}
	for i, lg := range logs[:2] {
		snap, err := s.Append(context.Background(), fmt.Sprintf("o%d", i), bytes.Join(jobLines(t, lg), nil))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != StatusPending {
			t.Fatalf("status %q with %d observations, want pending", snap.Status, i+1)
		}
		if len(snap.Points) != 0 {
			t.Fatalf("pending snapshot carries %d points", len(snap.Points))
		}
	}
	snap, err := s.Append(context.Background(), "o2", bytes.Join(jobLines(t, logs[2]), nil))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Status != StatusOK {
		t.Fatalf("status %q with 3 observations (%s), want ok", snap.Status, snap.Error)
	}
	if len(snap.Points) != 3 || len(snap.Arrows) == 0 {
		t.Fatalf("got %d points, %d arrows", len(snap.Points), len(snap.Arrows))
	}
}

// TestSubscribeCoalesces drives more appends than the subscriber
// drains and checks versions arrive monotonically, ending at the
// newest, with intermediate versions allowed to be skipped.
func TestSubscribeCoalesces(t *testing.T) {
	s, err := New(Config{Name: "subs"})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Subscribe()
	defer cancel()
	log := models.NewDowney(128).Generate(rng.New(21), 40)
	lines := jobLines(t, log)
	var lastVersion uint64
	for i := 0; i < len(lines); i += 8 {
		hi := i + 8
		if hi > len(lines) {
			hi = len(lines)
		}
		snap, err := s.Append(context.Background(), "a", bytes.Join(lines[i:hi], nil))
		if err != nil {
			t.Fatal(err)
		}
		lastVersion = snap.Version
	}
	var got []uint64
	for snap := range ch {
		got = append(got, snap.Version)
		if snap.Version == lastVersion {
			break
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("versions regressed: %v", got)
		}
	}
	if got[len(got)-1] != lastVersion {
		t.Fatalf("final received version %d, want %d", got[len(got)-1], lastVersion)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		// A buffered snapshot may still drain; the channel must close after.
		if _, ok := <-ch; ok {
			t.Fatal("channel still open after cancel")
		}
	}
}
