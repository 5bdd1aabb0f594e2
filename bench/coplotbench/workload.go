package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"coplot/internal/core"
	"coplot/internal/mat"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/store"
	"coplot/pkg/coplotclient"
)

// mix is one workload of the benchmark. Its plan — set-up
// requests and timed requests — is a pure function of the run seed.
type mix interface {
	// setup lists the untimed requests that prepare a fresh server,
	// sent in order: a cache working set, corpus uploads.
	setup() []request
	// request builds the i-th timed request.
	request(i int) (request, error)
	// replica resets the direct pipeline's own state — a replica store,
	// corpus or stream set under dir — from the set-up responses.
	replica(tr *tracer, dir string, setup []response) error
	// direct recomputes request i's response body through the layers'
	// public functions, recording one span per call in tr (nil =
	// untraced), and returns the cache key it derived ("" when the
	// endpoint is not cached). Stateful workloads need i in increasing
	// order from the last replica reset.
	direct(tr *tracer, i int) (body []byte, key string, err error)
	// check verifies the timed phase's outputs, with the server of the
	// run still up and the replica freshly reset, and returns the run's
	// output digest.
	check(ctx context.Context, in checkInput) (string, error)
}

// checkInput is what a workload's check reads.
type checkInput struct {
	ph     *phase
	setup  []response
	client *coplotclient.Client
	// verify is how many leading timed bodies were kept for the check.
	verify int
}

// spec describes one workload: how it is loaded and how much of it the
// checks and the trace replay.
type spec struct {
	name string
	why  string
	// open marks the open loop; the others are closed loops of one
	// client.
	open bool
	// verify is how many leading timed responses the check recomputes
	// through the direct pipeline (closed loops).
	verify int
	// sample is how many leading timed requests -trace replays.
	sample int
	// attribute holds the traced children of the handler to explaining
	// attributionFloor of its time: set where the handler is all
	// compute.
	attribute bool
	make      func(seed uint64) (mix, error)
}

// specs are the benchmark's workloads, in run order.
var specs = []spec{
	{
		name:   "analyze-archive",
		why:    "the paper's operation: 15 fresh 2000-job SWF logs per Co-plot map, so parsing, characterization and the solver do all the work; the cache never hits",
		verify: 8, sample: 24, attribute: true,
		make: func(seed uint64) (mix, error) { return newAnalyzeArchive(seed) },
	},
	{
		name:   "serve-warm",
		why:    "cache hits over a 64-key working set twice the 512 KiB memory tier: body hashing, the memory and disk store tiers and the codec, no compute",
		sample: 64,
		make:   func(seed uint64) (mix, error) { return newServeWarm(seed) },
	},
	{
		name:   "match-corpus",
		why:    "fresh 300-500-job traces ranked against a 250-entry corpus: the joint landmark embedding dominates",
		verify: 4, sample: 16, attribute: true,
		make: func(seed uint64) (mix, error) { return newMatchCorpus(seed) },
	},
	{
		name:   "stream-feed",
		why:    "60 appends/s into 2 live streams of 8 growing logs, on schedule: whole-log re-characterization, warm solves and re-anchors",
		open:   true,
		sample: 240,
		make:   func(seed uint64) (mix, error) { return newStreamFeed(seed) },
	},
}

// response is one set-up answer.
type response struct {
	body   []byte
	header http.Header
}

// digest hashes bodies in order into a short hex fingerprint.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		sum := sha256.Sum256(b)
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkLeading compares the first verify timed bodies with the direct
// pipeline's and digests them.
func checkLeading(ph *phase, verify int, w mix) (string, error) {
	if len(ph.samples) < verify {
		return "", fmt.Errorf("only %d requests completed, the check needs %d", len(ph.samples), verify)
	}
	bodies := make([][]byte, verify)
	for i := 0; i < verify; i++ {
		s := ph.samples[i]
		if s.err != nil {
			return "", fmt.Errorf("request %d failed: %v", i, s.err)
		}
		want, _, err := w.direct(nil, i)
		if err != nil {
			return "", fmt.Errorf("direct pipeline for request %d: %w", i, err)
		}
		if !bytes.Equal(s.body, want) {
			return "", fmt.Errorf("request %d: response differs from the direct pipeline", i)
		}
		bodies[i] = want
	}
	return digest(bodies), nil
}

// The responses the benchmark mirrors are text reports and JSON.
const (
	textPlain = "text/plain; charset=utf-8"
	appJSON   = "application/json"
)

// wireResponse mirrors the serving layer's durable cache record (a
// content type, the body as base64, extra headers), so the replica
// store's disk reads and writes cost what coplotd's do.
type wireResponse struct {
	ContentType string            `json:"content_type"`
	Body        []byte            `json:"body"`
	Extra       map[string]string `json:"extra,omitempty"`
}

// wireCodec is the replica store's codec for *wireResponse values.
type wireCodec struct{}

// Encode implements store.Codec.
func (wireCodec) Encode(v any) ([]byte, bool) {
	w, ok := v.(*wireResponse)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(w)
	return data, err == nil
}

// Decode implements store.Codec.
func (wireCodec) Decode(data []byte) (any, error) {
	var w wireResponse
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// replicaStore opens the deployment's tiered response store under dir:
// the memory tier capped like coplotd's over a fresh disk tier.
func replicaStore(dir string) (*store.Tiered, error) {
	disk, err := store.NewDisk(dir, wireCodec{})
	if err != nil {
		return nil, err
	}
	return store.NewTiered(store.NewMemory(deployCacheBytes), disk), nil
}

// lookup is the cache read every cached endpoint starts with: the key
// over the request's options and blobs, then the store.
func lookup(tr *tracer, st store.Backend, namespace string, opts []string, blobs ...[]byte) (key string, val *wireResponse) {
	tr.do("store.key", func() error {
		key = store.Key(namespace, opts, blobs...)
		return nil
	})
	tr.do("store.get", func() error {
		if v, ok := st.Get(key); ok {
			val = v.(*wireResponse)
		}
		return nil
	})
	return key, val
}

// save is the write-through that follows a computed miss.
func save(tr *tracer, st store.Backend, key, contentType string, body []byte) {
	tr.do("store.put", func() error {
		st.Put(key, &wireResponse{ContentType: contentType, Body: body}, int64(len(body)))
		return nil
	})
}

// analysisSeed is the solver seed every request leaves at the service
// default.
const analysisSeed = 7

// decompose re-runs one Co-plot embedding stage by stage, timing each
// public function under parent: the z-scores, the city-block
// dissimilarities, the SSA solve, the arrows and the alienation. want
// is the alienation the undivided call reported; a different one means
// the stages no longer add up to that call.
func decompose(ctx context.Context, tr *tracer, parent string, ds *core.Dataset, b *par.Budget, want float64) error {
	return tr.under(parent, func() error {
		var z, d *mat.Matrix
		tr.do("core.normalize", func() error { z = core.Normalize(ds); return nil })
		tr.do("core.cityblock", func() error { d = core.CityBlockWith(z, b); return nil })
		var fit mds.Result
		err := tr.do("mds.ssa", func() (err error) {
			fit, err = mds.SSAContext(ctx, d, mds.Options{Seed: analysisSeed, Par: b, Landmarks: deployLandmarks})
			return err
		})
		if err != nil {
			return err
		}
		tr.note("mds.iterations", float64(fit.Iterations))
		tr.note("mds.converged", boolFloat(fit.Converged))
		tr.do("core.fitarrows", func() error { core.FitArrows(ds.Variables, z, fit.Config); return nil })
		tr.do("mds.alienation", func() error { mds.AlienationWith(d, fit.Config, b); return nil })
		if fit.Alienation != want {
			return fmt.Errorf("%s: staged solve reached alienation %v, the call %v", parent, fit.Alienation, want)
		}
		return nil
	})
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
