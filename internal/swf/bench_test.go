package swf_test

import (
	"bytes"
	"testing"

	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/swf"
)

// lublinSWF renders an n-job Lublin log on 128 processors as SWF text,
// the shape of one analyze-archive input.
func lublinSWF(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := swf.Write(&buf, models.NewLublin(128).Generate(rng.New(1), n)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var parsed *swf.Log

func BenchmarkParse(b *testing.B) {
	data := lublinSWF(b, 2000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log, err := swf.Parse(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		parsed = log
	}
}

// TestParseAllocsLineInvariant asserts that Parse allocates per log, not
// per line: ten times the lines may cost only the few extra growth
// steps of the job slice.
func TestParseAllocsLineInvariant(t *testing.T) {
	run := func(n int) float64 {
		data := lublinSWF(t, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := swf.Parse(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := run(200), run(2000)
	if many > few+8 {
		t.Fatalf("allocations scale with lines: %v allocs for 200 lines, %v for 2000", few, many)
	}
}
