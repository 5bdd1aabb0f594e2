package service

// Acceptance tests of the corpus and match endpoints, driven through
// the typed client (pkg/coplotclient) exactly as external callers and
// the benchmark (bench/coplotbench) drive the service — so client/server
// drift fails here first.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"coplot"
	"coplot/internal/machine"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/swf"
	"coplot/pkg/coplotclient"

	"encoding/json"
	"net"
)

// corpusTestJobs keeps seeding fast in tests; determinism does not
// depend on the log length.
const corpusTestJobs = 200

// corpusClient boots a service with a small seeded corpus and wraps it
// in the typed client.
func corpusClient(t *testing.T, cfg Config) *coplotclient.Client {
	t.Helper()
	if cfg.CorpusJobs == 0 {
		cfg.CorpusJobs = corpusTestJobs
	}
	svc := mustNew(t, cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return coplotclient.New(ts.URL, nil)
}

func TestCorpusCRUDThroughClient(t *testing.T) {
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()

	idx, _, err := c.CorpusList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Total != 15 || len(idx.Entries) != 15 {
		t.Fatalf("seeded corpus = %d/%d entries, want 15", len(idx.Entries), idx.Total)
	}
	for _, e := range idx.Entries {
		if e.Source != "seed" {
			t.Fatalf("entry %s source = %q", e.Name, e.Source)
		}
	}

	// Upload, refetch, re-upload (idempotent), delete.
	body := swfBody(t, 3, 300)
	e, meta, err := c.CorpusAdmit(ctx, body, coplotclient.CorpusAdmitOptions{Name: "mine"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != http.StatusCreated || e.Source != "upload" || e.Name != "mine" {
		t.Fatalf("admit = %d %+v", meta.Status, e)
	}
	again, _, err := c.CorpusAdmit(ctx, body, coplotclient.CorpusAdmitOptions{Name: "mine"})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != e.ID {
		t.Fatalf("re-admit ID = %s, want %s", again.ID, e.ID)
	}
	got, _, err := c.CorpusGet(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mine" || got.Jobs != e.Jobs {
		t.Fatalf("get = %+v", got)
	}
	idx, _, err = c.CorpusList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Total != 16 {
		t.Fatalf("corpus after upload = %d, want 16", idx.Total)
	}
	if _, err := c.CorpusDelete(ctx, e.ID); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.CorpusGet(ctx, e.ID)
	var apiErr *coplotclient.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != CodeNotFound {
		t.Fatalf("get after delete = %v, want 404 %s", err, CodeNotFound)
	}
}

func TestCorpusErrorEnvelope(t *testing.T) {
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()

	// Unknown query parameter: 400 naming the offending parameter.
	_, _, err := c.Do(ctx, http.MethodPost, "/v1/corpus?name=x&bogus=1", "text/plain", swfBody(t, 1, 50))
	var apiErr *coplotclient.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *coplotclient.Error", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest || apiErr.Endpoint != "corpus" {
		t.Fatalf("envelope = %+v", apiErr)
	}
	if !strings.Contains(apiErr.Message, `"bogus"`) {
		t.Fatalf("message %q does not name the unknown option", apiErr.Message)
	}

	// Missing required option.
	_, _, err = c.Do(ctx, http.MethodPost, "/v1/corpus", "text/plain", swfBody(t, 1, 50))
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest || !strings.Contains(apiErr.Message, `"name"`) {
		t.Fatalf("missing-name envelope = %v", err)
	}

	// Malformed upload body.
	_, _, err = c.Match(ctx, []byte("not an swf log\n"), coplotclient.MatchOptions{})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest || apiErr.Endpoint != "match" {
		t.Fatalf("malformed-match envelope = %v", err)
	}

	// The raw envelope is exactly {"error":{code,endpoint,message}}.
	raw, err := http.Get(c.BaseURL() + "/v1/corpus/corpus-0000")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var env map[string]map[string]string
	if err := json.NewDecoder(raw.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	inner, ok := env["error"]
	if len(env) != 1 || !ok {
		t.Fatalf("envelope = %v", env)
	}
	for _, k := range []string{"code", "endpoint", "message"} {
		if inner[k] == "" {
			t.Fatalf("envelope missing %q: %v", k, inner)
		}
	}
}

// feitelson96Probe regenerates the Feitelson96 seed observation's
// exact log: the corpus derives its model seeds from the /v1/generate
// default seed, so a client can build a query whose nearest neighbor
// is known in advance.
func feitelson96Probe(t *testing.T) []byte {
	t.Helper()
	gen := models.NewFeitelson96(machine.NASA.Procs)
	var buf bytes.Buffer
	if err := swf.Write(&buf, gen.Generate(rng.New(1), corpusTestJobs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nasaMachine mirrors machine.NASA in client options.
var nasaMachine = coplotclient.MachineOptions{Procs: 128, Sched: "nqs", Alloc: "pow2"}

func TestMatchGoldenSeedNeighbors(t *testing.T) {
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()

	res, _, err := c.Match(ctx, feitelson96Probe(t), coplotclient.MatchOptions{
		Name: "probe", Machine: nasaMachine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query != "probe" || res.CorpusSize != 15 {
		t.Fatalf("header = %q/%d", res.Query, res.CorpusSize)
	}
	if len(res.Neighbors) != 15 || len(res.Points) != 16 {
		t.Fatalf("neighbors = %d, points = %d", len(res.Neighbors), len(res.Points))
	}
	// The query is the Feitelson96 seed's own log: its variable vector
	// coincides, so Feitelson96 must rank first with exactly zero
	// z-score deltas. (The map distance itself stays small but nonzero:
	// non-metric MDS only pulls duplicate rows together, it does not
	// force them to coincide.)
	if res.Neighbors[0].Name != "Feitelson96" {
		t.Fatalf("top neighbor = %s (%v)", res.Neighbors[0].Name, res.Neighbors[0].Distance)
	}
	for code, d := range res.Neighbors[0].Deltas {
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("self delta %s = %v", code, d)
		}
	}

	// Golden relative order of the paper's five models in this ranking
	// (the embedding is deterministic, so this order is a fixture).
	want := goldenModelOrder
	model := map[string]bool{"Feitelson96": true, "Feitelson97": true, "Downey": true, "Jann": true, "Lublin": true}
	var got []string
	for _, n := range res.Neighbors {
		if model[n.Name] {
			got = append(got, n.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("model order = %v, want %v", got, want)
	}
}

func TestMatchDeterministicAcrossWorkerCounts(t *testing.T) {
	c1 := corpusClient(t, Config{Jobs: 1})
	c4 := corpusClient(t, Config{Jobs: 4})
	ctx := context.Background()
	query := swfBody(t, 9, 250)
	opts := coplotclient.MatchOptions{Name: "q"}

	first, meta, err := c1.MatchRaw(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if meta.CacheHit {
		t.Fatal("first match was a cache hit")
	}
	// Same replica, repeated: served from cache, byte-identical.
	again, meta, err := c1.MatchRaw(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit {
		t.Fatal("repeat match missed the cache")
	}
	if !bytes.Equal(first, again) {
		t.Fatal("cached match differs")
	}
	// A separate service at a different worker count computes the same
	// bytes from scratch.
	other, meta, err := c4.MatchRaw(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if meta.CacheHit {
		t.Fatal("fresh service answered from cache")
	}
	if !bytes.Equal(first, other) {
		t.Fatal("match differs across worker counts")
	}
}

func TestMatchAcrossReplicas(t *testing.T) {
	// Two peered replicas: an upload admitted via A is visible to B's
	// corpus union, and both replicas produce byte-identical matches.
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		svc, err := New(Config{
			Jobs:        1,
			CorpusJobs:  corpusTestJobs,
			Peers:       urls,
			Self:        urls[i],
			PeerTimeout: 2 * time.Second,
			PeerRetries: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
	}
	a := coplotclient.New(urls[0], nil)
	b := coplotclient.New(urls[1], nil)
	ctx := context.Background()

	up := swfBody(t, 21, 300)
	e, _, err := a.CorpusAdmit(ctx, up, coplotclient.CorpusAdmitOptions{Name: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := b.CorpusList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range idx.Entries {
		if got.ID == e.ID {
			found = true
		}
	}
	if !found || idx.Total != 16 {
		t.Fatalf("replica B sees %d entries, upload visible: %v", idx.Total, found)
	}

	query := swfBody(t, 5, 250)
	opts := coplotclient.MatchOptions{Name: "q"}
	fromA, _, err := a.MatchRaw(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromB, _, err := b.MatchRaw(ctx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromA, fromB) {
		t.Fatal("replicas disagree on match bytes")
	}
	var res coplotclient.MatchResult
	if err := json.Unmarshal(fromA, &res); err != nil {
		t.Fatal(err)
	}
	if res.CorpusSize != 16 {
		t.Fatalf("match corpus size = %d, want 16 (upload included)", res.CorpusSize)
	}

	// Cluster-wide delete through B removes what A admitted.
	if _, err := b.CorpusDelete(ctx, e.ID); err != nil {
		t.Fatal(err)
	}
	idx, _, err = a.CorpusList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Total != 15 {
		t.Fatalf("corpus after cluster delete = %d, want 15", idx.Total)
	}
}

func TestCorpusSurvivesRestart(t *testing.T) {
	// The corpus lives in the durable tier: a restart over the same
	// cache directory recovers seeds and uploads without recomputing.
	dir := t.TempDir()
	svc1 := mustNew(t, Config{Jobs: 1, CacheDir: dir, CorpusJobs: corpusTestJobs})
	ts1 := httptest.NewServer(svc1)
	c1 := coplotclient.New(ts1.URL, nil)
	ctx := context.Background()
	e, _, err := c1.CorpusAdmit(ctx, swfBody(t, 8, 300), coplotclient.CorpusAdmitOptions{Name: "durable"})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	svc2 := mustNew(t, Config{Jobs: 1, CacheDir: dir, CorpusJobs: corpusTestJobs})
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	c2 := coplotclient.New(ts2.URL, nil)
	idx, _, err := c2.CorpusList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Total != 16 {
		t.Fatalf("recovered corpus = %d entries, want 16", idx.Total)
	}
	got, _, err := c2.CorpusGet(ctx, e.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "durable" || got.Source != "upload" {
		t.Fatalf("recovered upload = %+v", got)
	}
}

func TestCorpusMetricsSurface(t *testing.T) {
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()
	if _, _, err := c.Match(ctx, swfBody(t, 2, 200), coplotclient.MatchOptions{}); err != nil {
		t.Fatal(err)
	}
	body, _, err := c.Do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Corpus *struct {
			Entries int    `json:"entries"`
			Seeded  int    `json:"seeded"`
			Matches uint64 `json:"matches"`
		} `json:"corpus"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Corpus == nil || m.Corpus.Entries != 15 || m.Corpus.Seeded != 15 || m.Corpus.Matches != 1 {
		t.Fatalf("metrics corpus = %+v", m.Corpus)
	}
}

// goldenModelOrder is the fixture ranking of the five model seeds for
// the Feitelson96 probe query: Feitelson96 first (the query is its own
// log), then the models ordered by joint-map distance. A change here
// means the embedding, normalization, or gauge canonicalization moved.
var goldenModelOrder = []string{"Feitelson96", "Feitelson97", "Downey", "Lublin", "Jann"}

// TestMatchBytesPinned pins the /v1/match bodies of the Feitelson96
// probe to fixed digests. Match answers persist in the durable cache,
// so a refactor of the embedding, the gauge or the JSON shape must not
// move a single bit of them; the other match tests compare bytes only
// within one build. landmarks=10 puts the 16-observation joint table on
// the landmark path. The digests are amd64's: architectures whose
// compilers fuse multiply-adds may round differently.
func TestMatchBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	c := corpusClient(t, Config{Jobs: 1})
	probe := feitelson96Probe(t)
	for _, tc := range []struct {
		opts coplotclient.MatchOptions
		want string
	}{
		{coplotclient.MatchOptions{}, "3ab97f81ab437546a4ec74ddec17969b33d7af9f61698fa72d06d2012b4ee0c8"},
		{coplotclient.MatchOptions{K: 3}, "2c4a9633854fcfbd4c3336b55a4ac642905c3cb619b2feff577b60fb0e9443c7"},
		{coplotclient.MatchOptions{Landmarks: 10}, "8a416c0f1e61bc3691a16dcabd8652eb8676aedae046ca73127c222993056fff"},
	} {
		body, _, err := c.MatchRaw(context.Background(), probe, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("match%s: sha256 %s, want %s", coplotclient.Query(tc.opts), got, tc.want)
		}
	}
}

// TestMatchBytesPinnedLandmark251 pins one /v1/match body against a
// 250-entry corpus (the 15 seeds and 235 uploads), the shape of a
// served match at scale: its 251-observation joint table at
// landmarks=50 takes the landmark solve, the rank image's bulk sort
// and alienation's fast path, none of which the 16-observation pins
// above reach. The digest is amd64's.
func TestMatchBytesPinnedLandmark251(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is pinned on amd64, not %s", runtime.GOARCH)
	}
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()
	all := coplot.Models(128)
	for i := 0; i < 235; i++ {
		var buf bytes.Buffer
		log := coplot.GenerateWorkload(all[i%len(all)], uint64(100+i), 60+i%7*20)
		if err := swf.Write(&buf, log); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("up%03d", i)
		if _, _, err := c.CorpusAdmit(ctx, buf.Bytes(), coplotclient.CorpusAdmitOptions{Name: name}); err != nil {
			t.Fatalf("admit %s: %v", name, err)
		}
	}
	body, _, err := c.MatchRaw(ctx, feitelson96Probe(t), coplotclient.MatchOptions{Landmarks: 50})
	if err != nil {
		t.Fatal(err)
	}
	var res coplotclient.MatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.CorpusSize != 250 {
		t.Fatalf("corpus size %d, want 250", res.CorpusSize)
	}
	sum := sha256.Sum256(body)
	const want = "02e89b952e8db53561ad96a5544fb88a3ef9b01de6fa2548c9156ff7cf85c542"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("match?landmarks=50 over 250 entries: sha256 %s, want %s", got, want)
	}
}

// requireWireParity decodes a server body into the client's type dst,
// refusing fields the client does not declare, and requires the
// client's re-encoding to reproduce the body byte for byte (bar the
// trailing newline): the server and client declarations of the
// embedding's points, arrows and drift events cannot drift apart.
func requireWireParity(t *testing.T, what string, body []byte, dst any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		t.Fatalf("%s: client decode: %v", what, err)
	}
	again, err := json.Marshal(dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(again, want) {
		t.Fatalf("%s: client re-encoding differs:\n got %s\nwant %s", what, again, want)
	}
}

func TestClientServerWireParity(t *testing.T) {
	c := corpusClient(t, Config{Jobs: 1})
	ctx := context.Background()

	body, _, err := c.MatchRaw(ctx, feitelson96Probe(t), coplotclient.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireWireParity(t, "match", body, &coplotclient.MatchResult{})

	// Near-zero drift thresholds make every embedded append report
	// drift, and an observation without jobs stays pending, so the
	// snapshots carry each field the client declares.
	opts := coplotclient.StreamOptions{DriftPos: 1e-9, DriftAngle: 1e-9}
	chunks := map[string][][]byte{"idle": {nil}}
	for i, seed := range []uint64{21, 22, 23} {
		chunks[fmt.Sprintf("o%d", i)] = chunkedSWF(t, seed, 60, 3)
	}
	var seen coplotclient.StreamSnapshot
	for _, obs := range []string{"idle", "o0", "o1", "o2"} {
		for k, chunk := range chunks[obs] {
			opts.Obs = obs
			body, _, err := c.Do(ctx, http.MethodPost, "/v1/stream/w/append"+coplotclient.Query(opts), "text/plain", chunk)
			if err != nil {
				t.Fatal(err)
			}
			var snap coplotclient.StreamSnapshot
			requireWireParity(t, fmt.Sprintf("append %s/%d", obs, k), body, &snap)
			seen.Points = append(seen.Points, snap.Points...)
			seen.Arrows = append(seen.Arrows, snap.Arrows...)
			seen.Pending = append(seen.Pending, snap.Pending...)
			seen.Drift = append(seen.Drift, snap.Drift...)
		}
	}
	if len(seen.Points) == 0 || len(seen.Arrows) == 0 || len(seen.Pending) == 0 || len(seen.Drift) == 0 {
		t.Fatalf("appends left a field unexercised: %d points, %d arrows, %d pending, %d drift",
			len(seen.Points), len(seen.Arrows), len(seen.Pending), len(seen.Drift))
	}
	body, _, err = c.Do(ctx, http.MethodGet, "/v1/stream/w", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	requireWireParity(t, "get", body, &coplotclient.StreamSnapshot{})
}
