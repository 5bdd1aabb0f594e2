package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/url"
	"strconv"

	"coplot/internal/rng"
	"coplot/internal/store"
)

// The serve-warm working set: 64 distinct cacheable requests whose
// responses together take about twice the deployment's memory tier,
// so hits come from memory and from disk.
const (
	warmAnalyses  = 8
	warmGenerates = 16
	warmVariables = 20
	warmValidates = 20
)

// warmEntry is one working-set request with the inputs its cache key
// is derived from.
type warmEntry struct {
	req       request
	namespace string
	opts      []string
	blobs     [][]byte
}

// serveWarm is the serve-warm workload: the working set is computed
// once during set-up, then every timed request is a uniform draw from
// it — a cache hit.
type serveWarm struct {
	seed  uint64
	set   []warmEntry
	store store.Backend
}

func newServeWarm(seed uint64) (*serveWarm, error) {
	pool, err := newArchive(seed)
	if err != nil {
		return nil, err
	}
	w := &serveWarm{seed: seed}
	for j := 0; j < warmAnalyses; j++ {
		label := fmt.Sprintf("w%d", j)
		logs := pool.analysis(seed, label)
		req, err := analyzeRequest(label, logs)
		if err != nil {
			return nil, err
		}
		w.set = append(w.set, warmEntry{req: req, namespace: "analyze", opts: analyzeOpts, blobs: logBlobs(logs)})
	}
	for j := 0; j < warmGenerates; j++ {
		// 500–1300 jobs render as 35–90 KB of SWF.
		r := rng.New(rng.Derive(seed, fmt.Sprintf("generate/%d", j)))
		model := modelNames[r.Intn(len(modelNames))]
		n := 500 + r.Intn(801)
		gseed := 1 + r.Intn(1000000)
		q := url.Values{"model": {model}, "procs": {strconv.Itoa(procs)}, "n": {strconv.Itoa(n)}, "seed": {strconv.Itoa(gseed)}}
		w.set = append(w.set, warmEntry{
			req:       request{method: "POST", path: "/v1/generate?" + q.Encode()},
			namespace: "generate",
			opts:      []string{"model=" + model, fmt.Sprintf("procs=%d", procs), fmt.Sprintf("n=%d", n), fmt.Sprintf("seed=%d", gseed)},
		})
	}
	for j := 0; j < warmVariables+warmValidates; j++ {
		endpoint, name := "variables", fmt.Sprintf("v%d", j)
		if j >= warmVariables {
			endpoint, name = "validate", fmt.Sprintf("c%d", j)
		}
		opts := []string{"name=" + name, fmt.Sprintf("procs=%d", procs), "sched=easy", "alloc=unlimited"}
		if endpoint == "validate" {
			opts = append(opts, "downtime-factor=0", "top-user=0")
		}
		body, err := smallLog(seed, endpoint+"/"+name)
		if err != nil {
			return nil, err
		}
		w.set = append(w.set, warmEntry{
			req:       request{method: "POST", path: "/v1/" + endpoint + "?name=" + name, ctype: "text/plain", body: body},
			namespace: endpoint, opts: opts, blobs: [][]byte{body},
		})
	}
	return w, nil
}

func (w *serveWarm) setup() []request {
	out := make([]request, len(w.set))
	for j, e := range w.set {
		out[j] = e.req
	}
	return out
}

// entry is the working-set index timed request i draws.
func (w *serveWarm) entry(i int) int {
	return rng.New(rng.Derive(w.seed, fmt.Sprintf("serve/%d", i))).Intn(len(w.set))
}

func (w *serveWarm) request(i int) (request, error) { return w.set[w.entry(i)].req, nil }

// replica fills a replica store with the set-up responses, in set-up
// order, as coplotd's store was filled.
func (w *serveWarm) replica(_ *tracer, dir string, setup []response) error {
	st, err := replicaStore(dir)
	if err != nil {
		return err
	}
	for j, e := range w.set {
		resp := setup[j]
		rec := &wireResponse{ContentType: resp.header.Get("Content-Type"), Body: resp.body}
		if v := resp.header.Get("X-Coplot-Validate-Errors"); v != "" {
			rec.Extra = map[string]string{"X-Coplot-Validate-Errors": v}
		}
		st.Put(store.Key(e.namespace, e.opts, e.blobs...), rec, int64(len(resp.body)))
	}
	w.store = st
	return nil
}

func (w *serveWarm) direct(tr *tracer, i int) ([]byte, string, error) {
	e := w.set[w.entry(i)]
	blobs := e.blobs
	if e.namespace == "analyze" {
		logs, err := decodeLogs(tr, e.req)
		if err != nil {
			return nil, "", err
		}
		blobs = logBlobs(logs)
	}
	key, val := lookup(tr, w.store, e.namespace, e.opts, blobs...)
	if val == nil {
		return nil, key, fmt.Errorf("request %d: %s missing from the replica store", i, key)
	}
	return val.Body, key, nil
}

// check holds every hit to the body its entry computed cold, and every
// set-up key to the key the replica derives.
func (w *serveWarm) check(_ context.Context, in checkInput) (string, error) {
	cold := make([][]byte, len(w.set))
	sums := make([][sha256.Size]byte, len(w.set))
	for j, e := range w.set {
		resp := in.setup[j]
		if got, want := resp.header.Get("X-Coplot-Key"), store.Key(e.namespace, e.opts, e.blobs...); got != want {
			return "", fmt.Errorf("working-set entry %d: server key %s, replica key %s", j, got, want)
		}
		cold[j] = resp.body
		sums[j] = sha256.Sum256(resp.body)
	}
	for _, s := range in.ph.samples {
		switch {
		case s.err != nil:
			return "", fmt.Errorf("request %d failed: %v", s.i, s.err)
		case !s.hit:
			return "", fmt.Errorf("request %d missed the cache", s.i)
		case s.sum != sums[w.entry(s.i)]:
			return "", fmt.Errorf("request %d: hit differs from its cold body", s.i)
		}
	}
	return digest(cold), nil
}
