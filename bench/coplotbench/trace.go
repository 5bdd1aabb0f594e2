package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"coplot/internal/service"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent names the layer whose call caused this one. The
// direct replay re-executes the children of core.analyze, corpus.match
// and stream.append right after their parent (the public functions
// cannot be timed from inside one call), so those child intervals
// follow their parent's instead of nesting in it; every duration is
// exact.
type span struct {
	Req    string `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer collects spans and per-layer counts in memory; the spans are
// written out when the workload's run ends. A nil *tracer records
// nothing, so the direct pipelines run untraced for output checks.
type tracer struct {
	t0      time.Time
	req     string
	parents []string
	spans   []span
	notes   map[string][]float64
}

// newTracer starts a tracer whose span times count from t0.
func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, notes: map[string][]float64{}}
}

// begin starts the spans of request req, parented under root.
func (t *tracer) begin(req, root string) {
	if t == nil {
		return
	}
	t.req = req
	t.parents = []string{root}
}

// do times f as one call of layer.
func (t *tracer) do(layer string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := t.parents[len(t.parents)-1]
	t.parents = append(t.parents, layer)
	start := time.Now()
	err := f()
	end := time.Now()
	t.parents = t.parents[:len(t.parents)-1]
	t.record(t.req, layer, parent, start, end)
	return err
}

// under runs f with parent as the layer its spans report to, without
// timing parent itself (its own call was timed separately).
func (t *tracer) under(parent string, f func() error) error {
	if t == nil {
		return f()
	}
	t.parents = append(t.parents, parent)
	defer func() { t.parents = t.parents[:len(t.parents)-1] }()
	return f()
}

// record adds a span measured outside do: the in-process handler and
// loopback passes time whole requests themselves.
func (t *tracer) record(req, layer, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Req: req, Layer: layer, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// note records one observation of a per-layer count, such as the bytes
// a parse consumed or the iterations a solve took.
func (t *tracer) note(key string, v float64) {
	if t == nil {
		return
	}
	t.notes[key] = append(t.notes[key], v)
}

// perRequest sums each request's spans of layer and returns the sums in
// milliseconds, keyed by request.
func (t *tracer) perRequest(layer string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Layer == layer {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// layerMedian is the median over requests of the per-request time in
// layer, in milliseconds; ok is false when no request reached it.
func (t *tracer) layerMedian(layer string) (float64, bool) {
	per := t.perRequest(layer)
	if len(per) == 0 {
		return 0, false
	}
	vals := make([]float64, 0, len(per))
	for _, v := range per {
		vals = append(vals, v)
	}
	return median(vals), true
}

// children lists the layers recorded with parent as their parent, in
// first-seen order.
func (t *tracer) children(parent string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range t.spans {
		if s.Parent == parent && !seen[s.Layer] {
			seen[s.Layer] = true
			out = append(out, s.Layer)
		}
	}
	return out
}

// writeSpans stores spans as JSON lines in dir/spans.jsonl.
func writeSpans(dir string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}

// reqLabel names traced request i of a workload in the spans.
func reqLabel(workload string, i int) string { return fmt.Sprintf("%s/%d", workload, i) }

// replay sends the first n requests of the plan three ways, each from
// a fresh set-up: over loopback to a coplotd of their own, timed whole
// as transport.loopback; through an in-process service.New handler
// built like the deployment (httptest, no socket), timed whole as
// service.handler; and through the direct pipeline, timing each layer
// call under service.handler. The three alternate request by request,
// so a slow spell of the host lands on every side of the attribution.
// Scratch state lives under dir.
func replay(ctx context.Context, coplotd, dir string, sp spec, w mix, rep *report, setup []response, n int) error {
	tr := rep.tracer
	srv, _, err := setUp(ctx, coplotd, filepath.Join(dir, "loopback"), w)
	if err != nil {
		return fmt.Errorf("loopback server: %w", err)
	}
	defer srv.stop()
	svc, err := service.New(serviceConfig(filepath.Join(dir, "inproc")))
	if err != nil {
		return fmt.Errorf("in-process service: %w", err)
	}
	serve := func(r request) *httptest.ResponseRecorder {
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)).WithContext(ctx)
		if r.ctype != "" {
			req.Header.Set("Content-Type", r.ctype)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		return rec
	}
	for _, r := range w.setup() {
		if rec := serve(r); rec.Code/100 != 2 {
			return fmt.Errorf("in-process set-up %s: status %d: %s", r.path, rec.Code, rec.Body)
		}
	}
	if err := w.replica(tr, filepath.Join(dir, "replica"), setup); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	for i := 0; i < n; i++ {
		r, err := w.request(i)
		if err != nil {
			return err
		}
		label := reqLabel(sp.name, i)
		start := time.Now()
		_, _, _, _, err = send(ctx, srv.client, r)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("loopback request %d: %w", i, err)
		}
		tr.record(label, "transport.loopback", "", start, end)

		// Whichever of the two runs second finds the request's inputs
		// in the processor's caches, so they take turns going first.
		var rec *httptest.ResponseRecorder
		inProcess := func() {
			start := time.Now()
			rec = serve(r)
			tr.record(label, "service.handler", "transport.loopback", start, time.Now())
		}
		if i%2 == 0 {
			inProcess()
		}
		tr.begin(label, "service.handler")
		body, key, err := w.direct(tr, i)
		if err != nil {
			return fmt.Errorf("direct replay of request %d: %w", i, err)
		}
		if i%2 == 1 {
			inProcess()
		}
		if rec.Code/100 != 2 {
			return fmt.Errorf("in-process request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(body, rec.Body.Bytes()) {
			rep.fail(fmt.Errorf("traced request %d: the in-process body differs from the direct pipeline's", i))
		}
		if got := rec.Header().Get("X-Coplot-Key"); key != got {
			rep.fail(fmt.Errorf("traced request %d: the handler keyed %q, the direct pipeline %q", i, got, key))
		}
	}
	return nil
}
