package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// report is one workload run's measurements and verdicts.
type report struct {
	spec      spec
	ph        *phase
	setup     []float64 // seconds, one per set-up
	rss       float64   // coplotd's median resident set over the timed phase, MB
	hwm       float64   // coplotd's resident high-water mark (VmHWM), MB
	store     storeCounts
	digest    string
	checkErr  error
	tracer    *tracer
	spansPath string
}

// fail records a failed output check; the first one is reported.
func (r *report) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

// storeCounts are the store's traffic over the timed phase.
type storeCounts struct {
	memoryHits, diskHits, misses, evictions float64
}

// storeDelta subtracts two /metrics readings. A lookup that misses
// memory falls through to disk, so disk misses count full misses.
func storeDelta(before, after map[string]tierCounts) storeCounts {
	d := func(tier string, field func(tierCounts) uint64) float64 {
		return float64(field(after[tier]) - field(before[tier]))
	}
	hits := func(t tierCounts) uint64 { return t.Hits }
	misses := func(t tierCounts) uint64 { return t.Misses }
	evictions := func(t tierCounts) uint64 { return t.Evictions }
	return storeCounts{
		memoryHits: d("memory", hits),
		diskHits:   d("disk", hits),
		misses:     d("disk", misses),
		evictions:  d("memory", evictions) + d("disk", evictions),
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends each workload's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is a metric with its name and whether it could be measured.
type named struct {
	name  string
	unit  string
	value float64
	ok    bool
	why   string // when !ok
}

// quantile is a named latency percentile.
func quantile(name string, values []float64, p float64) named {
	v, ok := percentile(values, p)
	m := named{name: name, unit: "ms", value: v, ok: ok && !math.IsInf(v, 0)}
	if !ok {
		m.why = fmt.Sprintf("%d samples leave fewer than %d beyond it", len(values), minTail)
	} else if !m.ok {
		m.why = "failed requests reach it"
	}
	return m
}

// latencies lists the samples' latencies in milliseconds; a failed
// request misses every latency limit, so it counts as +Inf.
func latencies(samples []sample) []float64 {
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		v := math.Inf(1)
		if s.err == nil {
			v = float64(s.dur.Nanoseconds()) / 1e6
		}
		lat = append(lat, v)
	}
	return lat
}

// endToEnd derives the user-visible metrics of the timed phase: what
// BENCHMARK.json lists as end_to_end, on every workload. On the open
// loop the schedule sets the throughput while coplotd keeps up, so
// there it only falls when coplotd falls behind.
// The tails print below instead: on a slow host match-corpus can fall
// short of the 100 samples p90 needs, and analyze-archive's p90 swings
// between runs more than its p50.
// Memory is the median of coplotd's resident set sampled through the
// phase: its peak hangs on where garbage collections happen to fall and
// swings by a fifth between runs, so it prints below as well.
func (r *report) endToEnd() []named {
	done := r.ph.tally.attempted - r.ph.tally.failed
	return []named{
		{name: "setup_s", unit: "s", value: median(r.setup), ok: len(r.setup) > 0},
		{name: "throughput_rps", unit: "1/s", value: float64(done) / r.ph.wall.Seconds(), ok: done > 0},
		quantile("latency_p50_ms", latencies(r.ph.samples), 0.50),
		{name: "rss_mb", unit: "MB", value: r.rss, ok: r.rss > 0},
	}
}

// extras are the printed-only end-to-end figures: the latency tails the
// sample supports, coplotd's peak memory, the error rate and, on an
// open loop, how late the generator sent.
func (r *report) extras() []named {
	lat := latencies(r.ph.samples)
	out := []named{
		quantile("latency_p90_ms", lat, 0.90),
		quantile("latency_p95_ms", lat, 0.95),
		quantile("latency_p99_ms", lat, 0.99),
		{name: "peak_rss_mb", unit: "MB", value: r.hwm, ok: r.hwm > 0},
		{name: "error_rate", unit: "ratio", value: r.ph.tally.rate(), ok: true},
	}
	if r.spec.open {
		out = append(out, quantile("lag_p99_ms", r.lags(), 0.99))
	}
	return out
}

// lags lists how late the generator sent each append it had to wait
// for, in milliseconds. Appends whose stream was still busy at their
// due time are not the generator's lateness; their latency carries it.
func (r *report) lags() []float64 {
	var lags []float64
	for _, s := range r.ph.samples {
		if s.lag >= 0 {
			lags = append(lags, float64(s.lag.Nanoseconds())/1e6)
		}
	}
	return lags
}

// maxLag is how late the open-loop generator may send its p99 append
// before the report says it fell behind.
const maxLag = 10 * time.Millisecond

// lateNote says when over 1% of the on-time appends were sent more than
// maxLag late (the nearest-rank p99 test, which holds at any sample
// count), and "" otherwise. A late generator does not fail the run: the
// host can stall the generator's CPU for that long, and latency runs
// from each append's due time, so the numbers carry the delay instead of
// hiding it.
func (r *report) lateNote() string {
	lags := r.lags()
	late := 0
	for _, l := range lags {
		if l > float64(maxLag.Milliseconds()) {
			late++
		}
	}
	if 100*late <= len(lags) {
		return ""
	}
	return fmt.Sprintf("the generator sent %d of %d on-time appends over %v late; latency includes it", late, len(lags), maxLag)
}

// perLayer derives the per-layer metrics from the trace. Those named in
// layerJSON go on the result line; the rest print only, as "-" where
// the workload's requests never reach the layer. A layer's time is its
// per-request total (the 15 parses of one analysis add up), as the
// median over the traced requests.
func (r *report) perLayer() []named {
	tr := r.tracer
	handler := tr.perRequest("service.handler")
	loopback := tr.perRequest("transport.loopback")
	children := tr.children("service.handler")
	child := make([]map[string]float64, len(children))
	for k, c := range children {
		child[k] = tr.perRequest(c)
	}
	var overhead, self []float64
	for req, h := range handler {
		overhead = append(overhead, loopback[req]-h)
		s := h
		for _, c := range child {
			s -= c[req]
		}
		self = append(self, s)
	}
	hits := 0
	for _, s := range r.ph.samples {
		if s.hit {
			hits++
		}
	}

	out := []named{
		{name: "transport.loopback_ms", unit: "ms", value: medianOf(loopback), ok: len(loopback) > 0},
		{name: "service.handler_ms", unit: "ms", value: medianOf(handler), ok: len(handler) > 0},
		{name: "transport.overhead_ms", unit: "ms", value: median(overhead), ok: len(overhead) > 0},
		{name: "service.self_ms", unit: "ms", value: median(self), ok: len(self) > 0},
		{name: "service.hit_ratio", unit: "ratio", value: float64(hits) / float64(max(1, len(r.ph.samples))), ok: true},
		{name: "store.memory_hits", unit: "count", value: r.store.memoryHits, ok: true},
		{name: "store.disk_hits", unit: "count", value: r.store.diskHits, ok: true},
		{name: "store.misses", unit: "count", value: r.store.misses, ok: true},
		{name: "store.evictions", unit: "count", value: r.store.evictions, ok: true},
	}
	layer := func(name, l, unit string) named {
		v, ok := tr.layerMedian(l)
		if unit == "us" {
			v *= 1000
		}
		return named{name: name, unit: unit, value: v, ok: ok}
	}
	parseMS := 0.0
	for _, s := range tr.spans {
		if s.Layer == "swf.parse" {
			parseMS += float64(s.End-s.Start) / 1e6
		}
	}
	mean := func(key string) (float64, bool) {
		vals := tr.notes[key]
		return sum(vals) / float64(len(vals)), len(vals) > 0
	}
	mbs := sum(tr.notes["swf.bytes"]) / 1e6 / (parseMS / 1e3)
	jobs, jobsOK := mean("workload.jobs")
	conv, convOK := mean("mds.converged")
	warm, warmOK := mean("stream.warm")
	iters, itersOK := mean("stream.iterations")
	out = append(out,
		layer("service.decode_ms", "service.decode", "ms"),
		layer("store.key_us", "store.key", "us"),
		layer("swf.parse_ms", "swf.parse", "ms"),
		named{name: "swf.parse_mb_s", unit: "MB/s", value: mbs, ok: parseMS > 0},
		layer("workload.compute_ms", "workload.compute", "ms"),
		named{name: "workload.jobs_per_call", unit: "count", value: jobs, ok: jobsOK},
		layer("core.normalize_us", "core.normalize", "us"),
		layer("core.cityblock_us", "core.cityblock", "us"),
		layer("core.fitarrows_us", "core.fitarrows", "us"),
		layer("core.report_us", "core.report", "us"),
		layer("mds.ssa_ms", "mds.ssa", "ms"),
		named{name: "mds.iterations", unit: "count", value: median(tr.notes["mds.iterations"]), ok: convOK},
		named{name: "mds.converged_share", unit: "ratio", value: conv, ok: convOK},
		layer("mds.alienation_us", "mds.alienation", "us"),
		layer("corpus.match_ms", "corpus.match", "ms"),
		layer("corpus.encode_ms", "corpus.encode", "ms"),
		layer("corpus.admit_ms", "corpus.admit", "ms"),
		layer("stream.append_ms", "stream.append", "ms"),
		named{name: "stream.warm_share", unit: "ratio", value: warm, ok: warmOK},
		named{name: "stream.reanchors", unit: "count", value: float64(len(tr.notes["stream.reanchor"])), ok: warmOK},
		named{name: "stream.iterations_mean", unit: "count", value: iters, ok: itersOK},
	)
	return out
}

// layerJSON are the per-layer metrics BENCHMARK.json lists as
// per_layer; the result line of -trace 1 carries exactly these. They
// are the two that are positive on every workload by construction:
// each traced request crosses the socket and the handler. The others
// are 0 where a workload never reaches the layer (no hits on
// analyze-archive, no store on stream-feed), or are differences that
// noise can turn negative, so they only print.
var layerJSON = []string{"transport.loopback_ms", "service.handler_ms"}

// attributionFloor is the share of handler time the children must
// explain on the workloads whose handlers are all compute.
const attributionFloor = 0.9

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

func medianOf(m map[string]float64) float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	return median(vals)
}

// print writes the human-readable report and returns the result line.
func (r *report) print(w io.Writer, cfg config) result {
	sp := r.spec
	loop := "closed loop, 1 client"
	if sp.open {
		loop = fmt.Sprintf("open loop, %d appends/s over %d streams", feedRate, feedStreams)
	}
	fmt.Fprintf(w, "== %s (seed %d): %s\n", sp.name, cfg.seed, sp.why)
	t := r.ph.tally
	fmt.Fprintf(w, "   %s, %.0f s; %d requests, %d failed\n", loop, cfg.seconds, t.attempted, t.failed)
	res := result{
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	line := func(m named) {
		if !m.ok {
			why := m.why
			if why == "" {
				why = "not reached by this workload"
			}
			fmt.Fprintf(w, "   %-24s -  (%s)\n", m.name, why)
			return
		}
		fmt.Fprintf(w, "   %-24s %.4g %s\n", m.name, m.value, m.unit)
	}
	// emit prints m and, when it belongs on the result line, puts it
	// there; a run that cannot measure such a metric has failed.
	emit := func(m named, onLine bool) {
		line(m)
		switch {
		case !onLine:
		case !m.ok:
			r.fail(fmt.Errorf("%s could not be measured", m.name))
		default:
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	for _, m := range r.endToEnd() {
		emit(m, !cfg.trace)
	}
	for _, m := range r.extras() {
		line(m)
	}
	if sp.open {
		if note := r.lateNote(); note != "" {
			fmt.Fprintf(w, "   note: %s\n", note)
		}
	}
	fmt.Fprintf(w, "   %-24s %s\n", "setup_s (each)", formatList(r.setup, "%.3f"))
	fmt.Fprintf(w, "   %-24s %d\n", "samples", len(r.ph.samples))
	fmt.Fprintf(w, "   %-24s %s\n", "digest", r.digest)
	if cfg.trace {
		fmt.Fprintln(w, "   per-layer (trace sample):")
		for _, m := range r.perLayer() {
			emit(m, slices.Contains(layerJSON, m.name))
		}
		r.attribution(w)
		fmt.Fprintf(w, "   spans: %s\n", r.spansPath)
	}
	verdict := "ok"
	if r.checkErr != nil {
		verdict = "FAILED: " + r.checkErr.Error()
	}
	fmt.Fprintf(w, "   checks: %s\n", verdict)
	res.Correct = r.checkErr == nil
	return res
}

// attribution prints the children of service.handler against it: the
// sum of their medians, the share of the handler's median it explains,
// and the residual. Workloads that are all compute must explain
// attributionFloor of it.
func (r *report) attribution(w io.Writer) {
	tr := r.tracer
	perHandler := tr.perRequest("service.handler")
	handler := medianOf(perHandler)
	var parts []string
	total := 0.0
	for _, c := range tr.children("service.handler") {
		// A request that never reached the child spent no time in it.
		per := tr.perRequest(c)
		vals := make([]float64, 0, len(perHandler))
		for req := range perHandler {
			vals = append(vals, per[req])
		}
		v := median(vals)
		total += v
		parts = append(parts, fmt.Sprintf("%s %.3f", c, v))
	}
	share := total / handler
	fmt.Fprintf(w, "   attribution: %s = %.3f ms of service.handler %.3f ms (%.1f%%), residual %.3f ms\n",
		strings.Join(parts, " + "), total, handler, 100*share, handler-total)
	if r.spec.attribute && share < attributionFloor {
		r.fail(fmt.Errorf("children explain %.1f%% of the handler, below %.0f%%", 100*share, 100*attributionFloor))
	}
}

func formatList(vals []float64, format string) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}
