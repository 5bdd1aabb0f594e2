package stream

import (
	"context"
	"math"
	"testing"

	"coplot/internal/core"
	"coplot/internal/mat"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// FuzzStreamAppend throws adversarial chunk pairs at a two-observation
// stream — torn SWF lines, out-of-order and duplicate job ids, header
// noise, arbitrary bytes — and holds Append to its contract: it never
// panics, a rejected chunk leaves the published snapshot untouched,
// accepted appends version monotonically, every accepted append leaves
// z and d equal to a batch rebuild from the observations' logs, and
// the stream stays resumable (a known-good chunk is still accepted
// after any amount of garbage). Two observations keep the stream below
// the embedding threshold, so the target exercises exactly the
// ingestion and normalization layers the fuzzer can cover quickly.
func FuzzStreamAppend(f *testing.F) {
	const valid = "1 0.5 5 10 2 8.25 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n" +
		"2 1.5 0 3 1 -1 -1 1 4 -1 0 2 1 2 1 -1 -1 -1\n"
	f.Add([]byte(valid), []byte("3 2 0 4 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))
	f.Add([]byte(valid[:20]), []byte(valid)) // torn mid-line
	f.Add(                                   // out-of-order submits, then a duplicate job id
		[]byte("2 9 0 3 1 -1 -1 1 4 -1 0 2 1 2 1 -1 -1 -1\n1 0 5 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"),
		[]byte("1 0 5 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"),
	)
	f.Add([]byte("; header only\n"), []byte{})
	f.Add([]byte("1 NaN 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"), []byte("1 2 3\n"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, err := New(Config{Name: "fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var version uint64
		for _, in := range []struct {
			obs   string
			chunk []byte
		}{{"x", a}, {"y", b}, {"x", b}, {"y", a}} {
			before := s.Latest()
			snap, err := s.Append(ctx, in.obs, in.chunk)
			if err != nil {
				if got := s.Latest(); got != before {
					t.Fatalf("rejected append replaced the snapshot: %+v", got)
				}
				continue
			}
			version++
			if snap.Version != version {
				t.Fatalf("version %d after %d accepted appends", snap.Version, version)
			}
			if snap.Status == StatusOK {
				t.Fatalf("two observations produced a live embedding: %+v", snap)
			}
			checkBatchMatrices(t, s)
		}

		// Resumable: whatever the garbage did, a well-formed chunk still
		// lands.
		snap, err := s.Append(ctx, "x", []byte(valid))
		if err != nil {
			t.Fatalf("stream not resumable after fuzzed chunks: %v", err)
		}
		if snap.Version != version+1 {
			t.Fatalf("resume version %d, want %d", snap.Version, version+1)
		}
	})
}

// checkBatchMatrices holds the stream's z and d to a rebuild from
// scratch: every embedded observation's row recomputed from its jobs,
// then BuildTable, core.Normalize and core.CityBlockWith over the
// variables some observation has. A variable no observation has must
// be a zero column of z.
func checkBatchMatrices(t *testing.T, s *Stream) {
	t.Helper()
	if len(s.rows) == 0 {
		if s.z != nil || s.d != nil {
			t.Fatal("matrices without an embedded observation")
		}
		return
	}
	var rows []workload.Variables
	for _, o := range s.rows {
		v, err := workload.Compute(o.name, &swf.Log{Jobs: o.jobs}, s.cfg.Machine)
		if err != nil {
			t.Fatalf("workload.Compute(%s): %v", o.name, err)
		}
		rows = append(rows, v)
	}
	var present []int
	var codes []string
	for j, code := range s.cfg.Variables {
		for _, v := range rows {
			if !math.IsNaN(v.Get(code)) {
				present = append(present, j)
				codes = append(codes, code)
				break
			}
		}
	}
	tab, err := workload.BuildTable(rows, codes)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	zp := core.Normalize(&core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data})
	z := mat.New(len(rows), len(s.cfg.Variables))
	for i := range rows {
		for k, j := range present {
			z.Set(i, j, zp.At(i, k))
		}
	}
	sameBits(t, "z", s.z, z)
	sameBits(t, "d", s.d, core.CityBlockWith(z, nil))
}

// sameBits fails the test unless got and want agree bit for bit.
func sameBits(t *testing.T, name string, got, want *mat.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s is %dx%d, batch %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s cell %d = %v, batch %v", name, k, got.Data[k], want.Data[k])
		}
	}
}
