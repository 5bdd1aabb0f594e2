package main

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

// seq returns 1..n in reverse, so percentile must sort a copy.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true}, // exactly 10 samples beyond rank 90
		{100, 0.95, 0, false}, // 5 beyond
		{99, 0.90, 0, false},  // rank 90, 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{11, 0.01, 1, true}, // rank 1
		{0, 0.50, 0, false},
	} {
		values := seq(tc.n)
		got, ok := percentile(values, tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
		if tc.n > 0 && values[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
}

func TestTallyCountsRefusalsAsFailures(t *testing.T) {
	var tl tally
	tl.add(http.StatusOK, nil)
	tl.add(http.StatusCreated, nil)
	tl.add(http.StatusTooManyRequests, errors.New("overloaded"))
	tl.add(http.StatusTooManyRequests, nil)
	tl.add(http.StatusInternalServerError, nil)
	tl.add(0, errors.New("connection refused"))
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 6 attempted, 4 failed", tl)
	}
	if got := tl.rate(); got != 4.0/6 {
		t.Errorf("rate = %v, want %v", got, 4.0/6)
	}
	if got := (tally{}).rate(); got != 0 {
		t.Errorf("rate of nothing attempted = %v, want 0", got)
	}
}

func TestLateNoteAllowsOnePercentLate(t *testing.T) {
	run := func(late int) string {
		ph := &phase{}
		for i := 0; i < 200; i++ {
			lag := time.Millisecond
			if i < late {
				lag = 2 * maxLag
			}
			ph.samples = append(ph.samples, sample{i: i, lag: lag})
		}
		// A send whose stream was still busy is not generator lateness.
		ph.samples = append(ph.samples, sample{i: 200, lag: -1})
		r := &report{spec: spec{open: true}, ph: ph}
		return r.lateNote()
	}
	if note := run(2); note != "" {
		t.Errorf("2 of 200 late: %q, want no note", note)
	}
	if note := run(3); note == "" {
		t.Error("3 of 200 late: no note, want one")
	}
}
