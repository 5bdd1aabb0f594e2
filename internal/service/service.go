package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"time"

	"coplot/internal/cluster"
	"coplot/internal/corpus"
	"coplot/internal/engine"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/store"
	"coplot/internal/stream"
)

// maxBodyBytes caps a request body and an exchanged artifact.
const maxBodyBytes = 64 << 20

// Config tunes a Service; the zero value serves with defaults.
type Config struct {
	// Jobs sizes the one par.Budget every in-flight request draws its
	// analysis workers from (0 = GOMAXPROCS). The budget is global:
	// total kernel parallelism stays bounded no matter how many
	// requests run concurrently.
	Jobs int
	// MaxInflight caps concurrently admitted requests; excess requests
	// are answered 429 with a Retry-After header instead of queueing
	// (0 = twice the worker budget).
	MaxInflight int
	// CacheBytes bounds the response cache's memory tier: past it,
	// least-recently-used responses are evicted — recomputed on their
	// next request, or refetched from disk when a durable tier backs
	// the cache (0 = 256 MiB, negative = unbounded).
	CacheBytes int64
	// CacheDir roots the durable response cache: responses persist as
	// content-addressed files there and survive restarts. Empty means
	// memory only.
	CacheDir string
	// RequestTimeout bounds one request (0 = none); an expired request
	// is answered 504.
	RequestTimeout time.Duration
	// Peers is the full cluster member list (base URLs, including
	// Self). When set, the cache backend is wrapped in the peer-aware
	// cluster tier — misses try a peer fill from the key's owner
	// replica, computed responses back-fill their owner — and the
	// /internal/v1/artifact/{key} exchange endpoints are mounted.
	// Empty means single-replica operation.
	Peers []string
	// Self is this replica's own base URL as the other replicas reach
	// it; required when Peers is set, must appear in Peers.
	Self string
	// PeerTimeout bounds each peer fetch or back-fill attempt
	// (0 = cluster.DefaultTimeout).
	PeerTimeout time.Duration
	// PeerRetries is how many extra attempts follow a failed peer
	// operation, spaced by the deterministic backoff (0 = none).
	PeerRetries int
	// Sink receives the request events (task.start/finish, store
	// hit/miss/evict, pool samples, stream update/drift) in addition to
	// the service's own metrics aggregate; nil means metrics only.
	Sink obs.Sink
	// MaxStreams caps the live streams the /v1/stream endpoints hold
	// (0 = 64). Streams past the cap are refused 409 at creation.
	MaxStreams int
	// Landmarks is the default landmark count for analyses and
	// streams: matrices with more observations than this are embedded
	// by landmark MDS instead of the exact full solve
	// (mds.Options.Landmarks; 0 = always solve exactly). Per-request
	// "landmarks" options override it, and the resolved value is part
	// of every analyze cache key.
	Landmarks int
	// CorpusJobs is the generated log length of the 15 seed corpus
	// observations (0 = corpus.DefaultSeedJobs; negative = start with
	// an empty corpus). Replicas of one cluster must agree on it, so
	// their seed entries carry identical content-addressed IDs.
	CorpusJobs int
}

// Service is the HTTP serving layer: deterministic, cacheable analysis
// endpoints over the same code paths the CLIs use. Responses are keyed
// by a content hash of (endpoint, options, input bytes) in the
// engine's single-flight store, so a repeated request — or two
// identical requests racing — computes once.
type Service struct {
	cfg     Config
	budget  *par.Budget
	store   *engine.Store
	parts   *engine.Store // per-log artifacts, on the local tier only
	backend store.Backend
	metrics *obs.Metrics
	sink    obs.Sink
	sem     chan struct{}
	mux     *http.ServeMux
	streams *stream.Set
	corpus  *corpus.Corpus
	peers   int      // remote replicas in the cluster ring (0 = single-replica)
	peerURL []string // the other replicas' base URLs, for index merges

	// testHook, when set, runs inside each request's compute step
	// before the real work; tests use it to block, fail or panic a
	// request deterministically.
	testHook func(ctx context.Context, endpoint string) error
}

// New builds a Service from cfg. The worker budget, response cache and
// metrics aggregate live as long as the Service does; a durable cache
// tier (CacheDir) outlives it. The error is non-nil when CacheDir
// cannot be opened or the cluster configuration is invalid.
func New(cfg Config) (*Service, error) {
	s := &Service{
		cfg:     cfg,
		budget:  par.NewBudget(cfg.Jobs),
		metrics: obs.NewMetrics(),
		mux:     http.NewServeMux(),
	}
	memLimit := cfg.CacheBytes
	if memLimit == 0 {
		memLimit = 256 << 20
	}
	backend, err := store.Open(cfg.CacheDir, responseCodec{}, memLimit)
	if err != nil {
		return nil, err
	}
	local := backend
	if len(cfg.Peers) > 0 {
		peer, err := cluster.New(cluster.Config{
			Self:    cfg.Self,
			Peers:   cfg.Peers,
			Timeout: cfg.PeerTimeout,
			Retries: cfg.PeerRetries,
			Local:   backend,
			Codec:   responseCodec{},
		})
		if err != nil {
			return nil, err
		}
		// The exchange endpoints serve the LOCAL backend: a peer asking
		// this replica for an artifact sees only what is resident here.
		h := cluster.NewHandler(backend, responseCodec{}, maxBodyBytes)
		s.mux.Handle("GET /internal/v1/artifact/{key}", h)
		s.mux.Handle("PUT /internal/v1/artifact/{key}", h)
		s.peers = len(peer.Ring().Members()) - 1
		for _, p := range cfg.Peers {
			if p != cfg.Self {
				s.peerURL = append(s.peerURL, p)
			}
		}
		backend = peer
	}
	s.backend = backend
	s.sink = obs.Multi(s.metrics, cfg.Sink)
	s.store = engine.NewStore(backend, s.sink)
	// Per-log characterizations stay on this replica's own tiers: one is
	// cheap to recompute, while an analysis looks up one per uploaded
	// log, and a lookup through the ring could wait on a hung peer.
	s.parts = engine.NewStore(local, s.sink)
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 2 * s.budget.Size()
	}
	s.sem = make(chan struct{}, inflight)

	// Streaming endpoints: stateful, so they live outside the
	// cache/single-flight machinery (see streams.go).
	s.streams = stream.NewSet(cfg.MaxStreams)
	// Corpus endpoints: the index recovers from the LOCAL tier (what
	// is resident here), while uploads write through the ring so they
	// reach their owner replica. Seeds go local-only — every replica
	// regenerates them identically, so there is nothing to distribute
	// and a slow peer can never stall startup.
	s.corpus = corpus.New(local, backend)
	if cfg.CorpusJobs >= 0 {
		if _, err := s.corpus.Seed(cfg.CorpusJobs); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metricsHandler)
	for _, rt := range routes {
		s.mux.Handle(rt.Method+" "+rt.Path, rt.serve.mount(s, rt.Name))
	}
	if len(cfg.Peers) > 0 {
		s.mux.HandleFunc("GET /internal/v1/corpus", s.corpusIndex)
		s.mux.HandleFunc("DELETE /internal/v1/corpus/{id}", s.corpusPeerDelete)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the service's aggregate counters (tests and the
// /metrics endpoint read the same object).
func (s *Service) Metrics() *obs.Metrics { return s.metrics }

// Serve runs the service on ln until stop delivers, then drains:
// in-flight requests get up to drain (0 = no limit) to finish while
// new connections are refused. The error is nil after a clean drain.
func (s *Service) Serve(ln net.Listener, stop <-chan struct{}, drain time.Duration) error {
	srv := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	ctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, drain)
		defer cancel()
	}
	err := srv.Shutdown(ctx)
	<-errc // srv.Serve has returned http.ErrServerClosed
	return err
}

// response is one endpoint's computed answer, as cached: the exact
// bytes a matching CLI invocation writes to stdout, plus any
// endpoint-specific metadata headers. Cached responses are shared
// across requests and never mutated.
type response struct {
	contentType string
	body        []byte
	extra       map[string]string
}

// textResponse wraps a CLI-format report as a plain-text response.
func textResponse(text string) *response {
	return &response{contentType: "text/plain; charset=utf-8", body: []byte(text)}
}

// size reports the response's resident footprint for the cache's byte
// accounting.
func (r *response) size() int64 { return int64(len(r.body)) }

// wireResponse is a response's durable form: exported fields for JSON,
// with the body carried as base64 (encoding/json's []byte form), so a
// cached response round-trips through the disk tier byte-identically.
type wireResponse struct {
	ContentType string            `json:"content_type"`
	Body        []byte            `json:"body"`
	Extra       map[string]string `json:"extra,omitempty"`
}

// responseCodec persists the serving layer's artifacts in the durable
// cache tier: *response values (cached endpoint answers) and
// *corpus.Entry values (corpus members), routed on decode by the
// payload's "kind" tag — corpus entries carry corpus.WireKind, response
// payloads (including every legacy cache directory written before the
// corpus existed) have no such field. Any other value stays
// memory-only.
type responseCodec struct{}

// Encode implements store.Codec.
func (responseCodec) Encode(v any) ([]byte, bool) {
	if _, ok := v.(*corpus.Entry); ok {
		return corpus.EntryCodec{}.Encode(v)
	}
	resp, ok := v.(*response)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(wireResponse{ContentType: resp.contentType, Body: resp.body, Extra: resp.extra})
	if err != nil {
		return nil, false
	}
	return data, true
}

// Decode implements store.Codec.
func (responseCodec) Decode(data []byte) (any, error) {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &kind); err != nil {
		return nil, err
	}
	if kind.Kind == corpus.WireKind {
		return corpus.EntryCodec{}.Decode(data)
	}
	var w wireResponse
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &response{contentType: w.ContentType, body: w.Body, extra: w.Extra}, nil
}

// bodyPrealloc caps what readBody reserves from a declared
// Content-Length before any byte has arrived. It covers the bodies
// measured in practice (an archive analysis is about 2 MB); a longer
// body grows as it arrives, so a client that declares a length and
// sends nothing makes the server hold at most this much.
const bodyPrealloc = 4 << 20

// readBody reads a request's body under the maxBodyBytes cap; a
// failure comes back classified for the error envelope. A body that
// declares a length up to bodyPrealloc is read into one buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, bodyPrealloc)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, classifyBody(err)
	}
	return buf.Bytes(), nil
}

// protected wraps a compute for Store.DoSized so that a panic comes
// back as an *engine.PanicError: the flight then completes, the store
// drops it like any failure, and its waiters wake instead of blocking
// forever.
func protected(key string, compute func() (any, int64, error)) func() (any, int64, error) {
	return func() (v any, n int64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &engine.PanicError{Task: key, Value: r, Stack: debug.Stack()}
			}
		}()
		return compute()
	}
}

// handlerFunc parses one endpoint's request into its cache key and a
// compute closure. Parse-stage errors (bad options, malformed
// multipart) answer immediately; compute-stage errors come back from
// the store and are enveloped by their status.
type handlerFunc func(r *http.Request, body []byte) (key string, run func(ctx context.Context) (*response, error), err error)

// endpoint wraps h with the service machinery: semaphore backpressure,
// the per-request deadline, the content-hash cache, panic containment
// and the obs event stream.
func (s *Service) endpoint(name string, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.fail(w, name, errOverloaded)
			return
		}
		defer func() {
			<-s.sem
			obs.Emit(s.sink, obs.Event{Kind: obs.KindPoolSample, InUse: len(s.sem), Capacity: cap(s.sem)})
		}()
		obs.Emit(s.sink, obs.Event{Kind: obs.KindPoolSample, InUse: len(s.sem), Capacity: cap(s.sem)})

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		body, err := readBody(w, r)
		if err != nil {
			s.fail(w, name, err)
			return
		}
		key, run, err := h(r, body)
		if err != nil {
			s.fail(w, name, err)
			return
		}

		// The store is the cache and the single-flight gate. A panic is
		// converted to a *engine.PanicError before the store sees it, so
		// the errored entry is evicted and waiters wake instead of
		// blocking forever. A request that waited on another request's
		// flight which died of that request's context computes under
		// this closure, which fails fast if its own context is dead too.
		// The task events are named by endpoint, so the metrics keep one
		// task record per route however many distinct keys are served;
		// the key itself rides on the store events and the X-Coplot-Key
		// header.
		computed := false
		start := time.Now()
		obs.Emit(s.sink, obs.Event{Kind: obs.KindTaskStart, Name: name})
		v, err := s.store.DoSized(key, protected(key, func() (any, int64, error) {
			computed = true
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			if s.testHook != nil {
				if err := s.testHook(ctx, name); err != nil {
					return nil, 0, err
				}
			}
			resp, err := run(ctx)
			if err != nil {
				return nil, 0, err
			}
			return resp, resp.size(), nil
		}))
		if err == nil {
			err = ctx.Err() // a request past its deadline answers 504 even if its compute ignored it
		}
		done := obs.Event{Kind: obs.KindTaskFinish, Name: name, Elapsed: time.Since(start)}
		if err != nil {
			done.Err = err.Error()
		}
		obs.Emit(s.sink, done)
		if err != nil {
			s.fail(w, name, err)
			return
		}
		resp := v.(*response)
		w.Header().Set("Content-Type", resp.contentType)
		w.Header().Set("X-Coplot-Key", key)
		cache := "hit"
		if computed {
			cache = "miss"
		}
		w.Header().Set("X-Coplot-Cache", cache)
		for k, val := range resp.extra {
			w.Header().Set(k, val)
		}
		w.Write(resp.body)
	})
}

// healthz answers liveness probes with the service's vitals.
func (s *Service) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight\":%d,\"capacity\":%d,\"cache_bytes\":%d,\"jobs\":%d,\"peers\":%d}\n",
		len(s.sem), cap(s.sem), s.backend.Bytes(), s.budget.Size(), s.peers)
}

// Manifest snapshots the service's aggregate manifest, stamping the
// cache backend's per-tier storage counters on top of the event-stream
// aggregate. The /metrics endpoint, the -manifest exit file, and tests
// all read this one form. Its seed is 0, the value for a tool without a
// master seed: every analysis takes its seed from its request.
func (s *Service) Manifest() *obs.Manifest {
	m := s.metrics.Manifest(obs.RunInfo{
		Tool: "coplotd", Jobs: s.cfg.Jobs, Timeout: s.cfg.RequestTimeout,
	})
	if s.corpus != nil {
		cs := s.corpus.Stats()
		m.Corpus = &obs.CorpusStats{
			Entries: cs.Entries, Seeded: cs.Seeded,
			Admits: cs.Admits, Rejects: cs.Rejects, Matches: cs.Matches,
			MatchMS: float64(cs.MatchNS) / float64(time.Millisecond),
		}
	}
	m.Storage = s.backend.Stats()
	return m
}

// metricsHandler serves the aggregate run manifest — the same JSON the
// batch CLIs write with -manifest, accumulated over the service's
// lifetime.
func (s *Service) metricsHandler(w http.ResponseWriter, r *http.Request) {
	m := s.Manifest()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
