package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coplot"
	"coplot/internal/core"
	"coplot/internal/mds"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/swf"
	"coplot/internal/validate"
	"coplot/internal/workload"
)

// swfBody renders a deterministic synthetic log as SWF bytes.
func swfBody(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	log := coplot.GenerateWorkload(coplot.Models(128)[4], seed, n)
	var buf bytes.Buffer
	if err := swf.Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const testCSV = "name,x,y\na,1,10\nb,2,20\nc,3,28\nd,4,41\ne,5,52\n"

// post sends body to the test server and returns the response and its
// full body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestGenerateMatchesCLIBytes(t *testing.T) {
	// /v1/generate must answer the exact bytes cmd/wgen writes: the
	// model resolved by the shared ModelByName, run from the request
	// seed, serialized by swf.Write.
	svc := mustNew(t, Config{Jobs: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	gen, err := ModelByName("lublin", 128)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := swf.Write(&want, gen.Generate(rng.New(5), 400)); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts, "/v1/generate?model=lublin&procs=128&n=400&seed=5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("generate response differs from the CLI serialization")
	}
	if got := resp.Header.Get("X-Coplot-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}

	// The identical request is a cache hit, recorded in the metrics.
	resp2, body2 := post(t, ts, "/v1/generate?model=lublin&procs=128&n=400&seed=5", nil)
	if !bytes.Equal(body2, want.Bytes()) {
		t.Fatal("cached response differs")
	}
	if got := resp2.Header.Get("X-Coplot-Cache"); got != "hit" {
		t.Fatalf("repeated request cache = %q, want hit", got)
	}
	m := svc.Metrics().Manifest(obs.RunInfo{Tool: "test"})
	if m.Store.Lookups != 2 || m.Store.Misses != 1 {
		t.Fatalf("store lookups=%d misses=%d, want 2/1", m.Store.Lookups, m.Store.Misses)
	}
}

func TestLogEndpointsMatchCLIReports(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 2})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	body := swfBody(t, 3, 1500)
	log, err := swf.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}

	wantVars, err := VariablesReport("mylog", log, m)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := post(t, ts, "/v1/variables?name=mylog", body)
	if resp.StatusCode != http.StatusOK || string(got) != wantVars {
		t.Fatalf("variables status=%d body=%q want %q", resp.StatusCode, got, wantVars)
	}

	// The Hurst estimators are deterministic at any worker-budget size,
	// so a serial reference must match the service's shared budget.
	wantHurst, err := HurstReport(context.Background(), "mylog", log, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, got = post(t, ts, "/v1/hurst?name=mylog", body)
	if resp.StatusCode != http.StatusOK || string(got) != wantHurst {
		t.Fatalf("hurst status=%d body=%q want %q", resp.StatusCode, got, wantHurst)
	}

	wantVal, wantErrs := ValidateReport("mylog", log, m, validate.Options{})
	resp, got = post(t, ts, "/v1/validate?name=mylog", body)
	if resp.StatusCode != http.StatusOK || string(got) != wantVal {
		t.Fatalf("validate status=%d body=%q want %q", resp.StatusCode, got, wantVal)
	}
	if resp.Header.Get("X-Coplot-Validate-Errors") != fmt.Sprint(wantErrs) {
		t.Fatalf("validate errors header = %q, want %d", resp.Header.Get("X-Coplot-Validate-Errors"), wantErrs)
	}

	// scale-load answers the scaled log exactly as ScaleLoadWith + Write
	// produce it.
	scaled, err := coplot.ScaleLoadWith(log, coplot.ScaleRuntime, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	var wantScaled bytes.Buffer
	if err := swf.Write(&wantScaled, scaled); err != nil {
		t.Fatal(err)
	}
	resp, got = post(t, ts, "/v1/scale-load?method=scale-runtime&factor=2&procs=128", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, wantScaled.Bytes()) {
		t.Fatalf("scale-load status=%d, body differs from CLI serialization", resp.StatusCode)
	}
}

func TestAnalyzeCSVMatchesCLIAtAnyJobs(t *testing.T) {
	// The reference is what cmd/coplot prints for the same CSV: the
	// shared parser plus core.AnalyzeContext at the CLI defaults (seed 7).
	ds, err := ParseCSVDataset("body", strings.NewReader(testCSV))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: mds.Options{Seed: 7, Par: par.NewBudget(1)}})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Report()

	for _, jobs := range []int{1, 4} {
		svc := mustNew(t, Config{Jobs: jobs})
		ts := httptest.NewServer(svc)
		resp, got := post(t, ts, "/v1/analyze", []byte(testCSV))
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs=%d status %d: %s", jobs, resp.StatusCode, got)
		}
		if string(got) != want {
			t.Fatalf("jobs=%d analyze response differs from the CLI report", jobs)
		}
	}
}

func TestAnalyzeMultipartSWF(t *testing.T) {
	// SWF mode: each uploaded log becomes one observation, named by its
	// part filename, characterized exactly as cmd/coplot does.
	names := []string{"a.swf", "b.swf", "c.swf", "d.swf"}
	var bodies [][]byte
	for i := range names {
		bodies = append(bodies, swfBody(t, uint64(10+i), 400))
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, name := range names {
		fw, err := mw.CreateFormFile("log", name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(bodies[i])
	}
	mw.Close()

	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]workload.Variables, len(names))
	for i, name := range names {
		log, err := swf.Parse(bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		rows[i], err = workload.Compute(name, log, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := DatasetFromVariables(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: mds.Options{Seed: 7, Par: par.NewBudget(1)}})
	if err != nil {
		t.Fatal(err)
	}

	svc := mustNew(t, Config{Jobs: 2})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/analyze", mw.FormDataContentType(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if string(got) != res.Report() {
		t.Fatal("multipart analyze response differs from the CLI pipeline")
	}
	key1 := resp.Header.Get("X-Coplot-Key")

	// A re-upload of the same logs is the same key — the cache key
	// hashes the decoded parts, not the per-request multipart boundary.
	var buf2 bytes.Buffer
	mw2 := multipart.NewWriter(&buf2)
	mw2.SetBoundary("a-completely-different-boundary-9981")
	for i, name := range names {
		fw, _ := mw2.CreateFormFile("log", name)
		fw.Write(bodies[i])
	}
	mw2.Close()
	resp2, err := http.Post(ts.URL+"/v1/analyze", mw2.FormDataContentType(), bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Coplot-Key") != key1 {
		t.Fatal("cache key depends on the multipart boundary")
	}
	if resp2.Header.Get("X-Coplot-Cache") != "hit" {
		t.Fatal("identical multipart upload was not a cache hit")
	}
}

func TestConcurrentRequestsByteIdentical(t *testing.T) {
	// Eight concurrent requests (four distinct analyses, each twice)
	// against one shared worker budget must answer exactly the serial
	// reference bytes — determinism survives concurrency — and the
	// duplicate pairs must dedupe in the single-flight cache.
	refs := make(map[uint64]string)
	refSvc := mustNew(t, Config{Jobs: 2, MaxInflight: 16})
	refTS := httptest.NewServer(refSvc)
	for seed := uint64(1); seed <= 4; seed++ {
		resp, body := post(t, refTS, fmt.Sprintf("/v1/analyze?seed=%d", seed), []byte(testCSV))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference seed %d: status %d", seed, resp.StatusCode)
		}
		refs[seed] = string(body)
	}
	refTS.Close()

	svc := mustNew(t, Config{Jobs: 2, MaxInflight: 16})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		seed := uint64(i%4 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/analyze?seed=%d", seed), "text/plain", strings.NewReader(testCSV))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, body)
				return
			}
			if string(body) != refs[seed] {
				errs <- fmt.Errorf("seed %d: concurrent response differs from serial reference", seed)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := svc.Metrics().Manifest(obs.RunInfo{Tool: "test"})
	if m.Store.Lookups != 8 {
		t.Fatalf("lookups = %d, want 8", m.Store.Lookups)
	}
	if m.Store.Misses > 4 {
		t.Fatalf("misses = %d, want <= 4 (duplicates must dedupe)", m.Store.Misses)
	}
}

func TestSaturationReturns429(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, MaxInflight: 1})
	enter := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHook = func(ctx context.Context, endpoint string) error {
		once.Do(func() { close(enter) })
		<-release
		return nil
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/generate?model=lublin&n=50", "text/plain", nil)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-enter // the slot is now held

	resp, body := post(t, ts, "/v1/generate?model=downey&n=50", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished with %d", code)
	}
}

func TestPanicContainedAs500(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, MaxInflight: 4})
	var calls atomic.Int64
	svc.testHook = func(ctx context.Context, endpoint string) error {
		if calls.Add(1) == 1 {
			panic("kaboom")
		}
		return nil
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/generate?model=lublin&n=50", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500", resp.StatusCode)
	}
	if strings.Contains(string(body), "kaboom") || strings.Contains(string(body), "goroutine") {
		t.Fatalf("panic details leaked to the client: %q", body)
	}
	// The errored cache entry was evicted: the same request recomputes
	// and succeeds — one contained panic does not poison the key.
	resp, _ = post(t, ts, "/v1/generate?model=lublin&n=50", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after contained panic: status %d", resp.StatusCode)
	}
}

func TestRequestDeadlineReturns504(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, MaxInflight: 4, RequestTimeout: 50 * time.Millisecond})
	svc.testHook = func(ctx context.Context, endpoint string) error {
		<-ctx.Done()
		return ctx.Err()
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := post(t, ts, "/v1/generate?model=lublin&n=50", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
}

func TestBadInputsReturn400(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cases := []struct {
		path string
		body string
	}{
		{"/v1/analyze", "not,a\nvalid,matrix\n"},
		{"/v1/generate?model=nope", ""},
		{"/v1/generate", ""}, // missing model
		{"/v1/scale-load?method=bogus&factor=2", ""},
		{"/v1/scale-load?method=scale-runtime", ""}, // missing factor
		{"/v1/variables?sched=fifo", "1 0 0 1 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n"},
		{"/v1/variables", "this is not SWF &&&\nnor this\n"},
	}
	for _, c := range cases {
		resp, body := post(t, ts, c.path, []byte(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.path, resp.StatusCode, body)
		}
	}
	// The unknown scale-load method error carries the redesigned API's
	// sentinel message listing the valid methods.
	resp, body := post(t, ts, "/v1/scale-load?method=bogus&factor=2", []byte(""))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "scale-interarrival") {
		t.Fatalf("unknown method error does not enumerate methods: %s", body)
	}
}

func TestCacheEvictionRecomputes(t *testing.T) {
	// With a 1-byte cap every response is over the limit: it is evicted
	// as soon as it is inserted, so a repeated request recomputes (miss)
	// and the evictions show up in the metrics.
	svc := mustNew(t, Config{Jobs: 1, CacheBytes: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	first, b1 := post(t, ts, "/v1/generate?model=lublin&n=80&seed=2", nil)
	second, b2 := post(t, ts, "/v1/generate?model=lublin&n=80&seed=2", nil)
	if first.StatusCode != http.StatusOK || second.StatusCode != http.StatusOK {
		t.Fatal("generate failed under a tiny cache")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("recomputed response differs")
	}
	if second.Header.Get("X-Coplot-Cache") != "miss" {
		t.Fatal("evicted entry served as a hit")
	}
	m := svc.Metrics().Manifest(obs.RunInfo{Tool: "test"})
	if m.Store.Evictions < 1 {
		t.Fatalf("evictions = %d, want >= 1", m.Store.Evictions)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Jobs   int    `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Jobs != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	post(t, ts, "/v1/generate?model=lublin&n=50", nil)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m obs.Manifest
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "coplotd" || m.Store.Lookups != 1 || len(m.Tasks) != 1 {
		t.Fatalf("metrics manifest = tool=%q lookups=%d tasks=%d", m.Tool, m.Store.Lookups, len(m.Tasks))
	}
}

func TestServeDrainsInflightRequests(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, MaxInflight: 4})
	enter := make(chan struct{})
	var once sync.Once
	svc.testHook = func(ctx context.Context, endpoint string) error {
		once.Do(func() { close(enter) })
		time.Sleep(200 * time.Millisecond)
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- svc.Serve(ln, stop, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	got := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/generate?model=lublin&n=50", "text/plain", nil)
		if err != nil {
			got <- -1
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-enter     // the request is in flight
	close(stop) // SIGTERM path: begin draining
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after a clean drain", err)
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// mustNew builds a Service for tests, failing the test on config errors.
func mustNew(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCachePersistsAcrossRestart is the acceptance test for the
// durable cache tier: a second Service opened over the same cache
// directory — a simulated process restart — must serve a key the first
// Service computed as a cache hit, with a byte-identical body.
func TestCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/generate?model=lublin&procs=128&n=400&seed=5"

	svc1 := mustNew(t, Config{Jobs: 1, CacheDir: dir, CorpusJobs: -1})
	ts1 := httptest.NewServer(svc1)
	resp1, body1 := post(t, ts1, path, nil)
	ts1.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Coplot-Cache"); got != "miss" {
		t.Fatalf("first process cache = %q, want miss", got)
	}

	// "Restart": a fresh Service, fresh engine store, same directory.
	svc2 := mustNew(t, Config{Jobs: 1, CacheDir: dir, CorpusJobs: -1})
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	resp2, body2 := post(t, ts2, path, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d after restart: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Coplot-Cache"); got != "hit" {
		t.Fatalf("restarted process cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restarted process served different bytes for the same key")
	}
	if resp1.Header.Get("X-Coplot-Key") != resp2.Header.Get("X-Coplot-Key") {
		t.Fatal("cache keys differ across restart")
	}

	// The manifest reports both tiers: the hit came from disk.
	m := svc2.Manifest(obs.RunInfo{Tool: "test"})
	if len(m.Storage) != 2 || m.Storage[0].Tier != "memory" || m.Storage[1].Tier != "disk" {
		t.Fatalf("storage tiers = %+v, want memory+disk", m.Storage)
	}
	if m.Storage[1].Hits != 1 || m.Storage[1].Len != 1 {
		t.Fatalf("disk tier = %+v, want 1 hit / 1 resident", m.Storage[1])
	}
}

// TestCacheTierConfig pins the tier selection and its failure modes.
func TestCacheTierConfig(t *testing.T) {
	if _, err := New(Config{CacheTier: "disk"}); err == nil {
		t.Fatal("disk tier without a dir must fail")
	}
	if _, err := New(Config{CacheTier: "bogus"}); err == nil {
		t.Fatal("unknown tier must fail")
	}
	// Explicit memory tier ignores the dir and stays volatile.
	dir := t.TempDir()
	svc := mustNew(t, Config{Jobs: 1, CacheDir: dir, CacheTier: "memory"})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := post(t, ts, "/v1/generate?model=lublin&procs=128&n=100&seed=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	svc2 := mustNew(t, Config{Jobs: 1, CacheDir: dir, CacheTier: "memory"})
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	resp2, _ := post(t, ts2, "/v1/generate?model=lublin&procs=128&n=100&seed=3", nil)
	if got := resp2.Header.Get("X-Coplot-Cache"); got != "miss" {
		t.Fatalf("memory tier served %q after restart, want miss", got)
	}
}
