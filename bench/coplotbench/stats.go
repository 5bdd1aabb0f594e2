package main

import (
	"math"
	"net/http"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail read off fewer samples is one or two outliers.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of values,
// and false when fewer than minTail samples lie beyond that rank.
// values need not be sorted and are left untouched.
func percentile(values []float64, p float64) (float64, bool) {
	n := len(values)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, false
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// median is the middle value of values (the mean of the middle two for
// an even count), with no sample-count floor: it summarizes repeated
// measurements such as the set-up times of one run.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tally counts requests attempted and failed. A request fails when it
// errors in transport or is answered outside 2xx; a 429 refusal is a
// failure like any other, since the caller did not get its answer.
type tally struct {
	attempted, failed int
}

// add records one request outcome.
func (t *tally) add(status int, err error) {
	t.attempted++
	if err != nil || status < http.StatusOK || status > 299 {
		t.failed++
	}
}

// rate is the failed share of attempts (0 when nothing was attempted).
func (t tally) rate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
