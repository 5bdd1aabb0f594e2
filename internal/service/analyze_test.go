package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coplot/internal/cluster"
	"coplot/internal/obs"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// multipartLogs renders logs as an analyze request body, one form-file
// part per log under the matching name.
func multipartLogs(t testing.TB, names []string, logs [][]byte) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, name := range names {
		fw, err := mw.CreateFormFile("log", name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(logs[i])
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// analyzeLogs posts logs under names to /v1/analyze.
func analyzeLogs(t *testing.T, ts *httptest.Server, names []string, logs [][]byte) (*http.Response, []byte) {
	t.Helper()
	body, ctype := multipartLogs(t, names, logs)
	resp, err := http.Post(ts.URL+"/v1/analyze", ctype, bytes.NewReader(body))
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

// envelope decodes an error answer.
func envelope(t *testing.T, data []byte) apiError {
	t.Helper()
	var env struct{ Error apiError }
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("not an error envelope: %.200s: %v", data, err)
	}
	return env.Error
}

// noRuntimeLog is a log whose jobs all lack a runtime, so its runtime
// median and interval characterize as NaN.
func noRuntimeLog(t *testing.T, seed uint64) []byte {
	t.Helper()
	log, err := swf.Parse(bytes.NewReader(swfBody(t, seed, 400)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range log.Jobs {
		log.Jobs[i].Runtime = -1
	}
	var buf bytes.Buffer
	if err := swf.Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeWarmPartsMatchCold: logs a server has characterized once
// are reused under new part names — each part lookup is a store hit —
// and the answer is byte-identical to a cold server's for the same
// request. The response itself is still a miss: its key covers the
// names.
func TestAnalyzeWarmPartsMatchCold(t *testing.T) {
	logs := [][]byte{swfBody(t, 20, 400), swfBody(t, 21, 400), swfBody(t, 22, 400), swfBody(t, 23, 400)}
	first := []string{"a.swf", "b.swf", "c.swf", "d.swf"}
	renamed := []string{"w.swf", "x.swf", "y.swf", "z.swf"}

	warm := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	tsWarm := httptest.NewServer(warm)
	defer tsWarm.Close()
	if resp, data := analyzeLogs(t, tsWarm, first, logs); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	before := warm.Manifest().Storage[0].Hits
	resp, got := analyzeLogs(t, tsWarm, renamed, logs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if c := resp.Header.Get("X-Coplot-Cache"); c != "miss" {
		t.Fatalf("renamed analysis X-Coplot-Cache = %q, want miss", c)
	}
	if hits := warm.Manifest().Storage[0].Hits - before; hits != uint64(len(logs)) {
		t.Fatalf("renamed analysis made %d memory hits, want one per part (%d)", hits, len(logs))
	}

	cold := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	resp, want := analyzeLogs(t, tsCold, renamed, logs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm-parts answer differs from a cold server's:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(string(got), "w.swf") {
		t.Fatal("the answer does not carry the request's part names")
	}
}

// TestAnalyzePartsSurviveRestart: characterizations persist in the
// disk tier, a NaN variable included (carried as null), and a restarted
// server answers from them byte-identically to a cold memory-only one.
func TestAnalyzePartsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	logs := [][]byte{swfBody(t, 30, 400), swfBody(t, 31, 400), swfBody(t, 32, 400), noRuntimeLog(t, 33)}
	first := []string{"a.swf", "b.swf", "c.swf", "nan.swf"}
	renamed := []string{"p.swf", "q.swf", "r.swf", "s.swf"}

	svc1 := mustNew(t, Config{Jobs: 1, CorpusJobs: -1, CacheDir: dir})
	ts1 := httptest.NewServer(svc1)
	resp, data := analyzeLogs(t, ts1, first, logs)
	ts1.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}

	svc2 := mustNew(t, Config{Jobs: 1, CorpusJobs: -1, CacheDir: dir})
	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}
	nan, err := svc2.logVars(logs[3], m)
	if err != nil {
		t.Fatal(err)
	}
	median := slices.Index(workload.DatasetVars, workload.VarRuntimeMedian)
	if !math.IsNaN(nan.Vars[median]) {
		t.Fatalf("runtime median of a log without runtimes = %v, want NaN", nan.Vars[median])
	}
	if disk := svc2.Manifest().Storage[1]; disk.Tier != "disk" || disk.Hits != 1 {
		t.Fatalf("disk tier %+v: the NaN log's characterization was not read back from disk", disk)
	}
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	resp, got := analyzeLogs(t, ts2, renamed, logs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after restart: %s", resp.StatusCode, got)
	}
	// The other three parts are read from disk now; the NaN one was
	// promoted to memory by the lookup above.
	if disk := svc2.Manifest().Storage[1]; disk.Hits != uint64(len(logs)) {
		t.Fatalf("disk tier %+v after restart, want one hit per part (%d)", disk, len(logs))
	}

	cold := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	_, want := analyzeLogs(t, tsCold, renamed, logs)
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted answer differs from a cold server's:\n%s\nvs\n%s", got, want)
	}
}

// TestAnalyzeFailedPartCachesNothing: a part that fails to parse, or
// holds no jobs, fails the request 400 under its own name and leaves
// neither its characterization nor the response in the store.
func TestAnalyzeFailedPartCachesNothing(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}
	good := [][]byte{swfBody(t, 40, 300), swfBody(t, 41, 300)}
	for _, c := range []struct {
		log, msg string
	}{
		{"this is not SWF &&&\n", "bad.swf: swf: line 1 has 5 fields, want 18"},
		{"; a header and no jobs\n", "bad.swf: empty log"},
	} {
		resp, data := analyzeLogs(t, ts, []string{"g1.swf", "g2.swf", "bad.swf"}, append(good, []byte(c.log)))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d (%s), want 400", c.log, resp.StatusCode, data)
		}
		if env := envelope(t, data); env.Code != CodeBadRequest || env.Message != c.msg {
			t.Fatalf("%q: error %+v, want bad_request %q", c.log, env, c.msg)
		}
		if _, ok := svc.backend.Get(logVarsKey([]byte(c.log), m)); ok {
			t.Fatalf("%q: the failed characterization was stored", c.log)
		}
	}
	for _, k := range svc.backend.Keys() {
		if strings.HasPrefix(k, "analyze-") {
			t.Fatalf("a failed analysis left response %s in the store", k)
		}
	}
}

// TestAnalyzePartsStayLocal: in cluster mode the per-log artifacts live
// on the replica's own tiers, so characterizing a log never asks a
// peer — not even for a key the peer owns while the peer accepts
// connections and never answers.
func TestAnalyzePartsStayLocal(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close() // never accepted: the kernel completes connects, nothing answers
	self, peer := "http://127.0.0.1:1", "http://"+hung.Addr().String()
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1, Peers: []string{self, peer}, Self: self, PeerTimeout: 30 * time.Second})
	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}
	ring := svc.backend.(*cluster.Peer).Ring()
	remote := 0
	for seed := uint64(60); remote < 3; seed++ {
		if seed == 100 {
			t.Fatal("no log in 40 is owned by the peer")
		}
		log := swfBody(t, seed, 200)
		if ring.Owner(logVarsKey(log, m)) != peer {
			continue
		}
		remote++
		start := time.Now()
		for range 2 { // a miss, then a hit
			if _, err := svc.logVars(log, m); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("characterizing a peer-owned log took %v", d)
		}
	}
	for _, tier := range svc.Manifest().Storage {
		if strings.HasPrefix(tier.Tier, "peer:") && tier.Hits+tier.Misses+tier.Fills+tier.Errors != 0 {
			t.Fatalf("part lookups reached the peer: %+v", tier)
		}
	}
}

// TestReadBodyCapsPreallocation: a declared Content-Length far past
// what arrives reserves at most about bodyPrealloc up front, not the
// declared size.
func TestReadBodyCapsPreallocation(t *testing.T) {
	req := httptest.NewRequest("POST", "/v1/variables", strings.NewReader("0123456789"))
	req.ContentLength = maxBodyBytes
	data, err := readBody(httptest.NewRecorder(), req)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "0123456789" {
		t.Fatalf("body %q", data)
	}
	if c := cap(data); c > 2*bodyPrealloc {
		t.Fatalf("a header-only declaration of %d bytes reserved %d", maxBodyBytes, c)
	}
}

// waitCounter counts single-flight waits on one store key.
type waitCounter struct {
	key string
	mu  sync.Mutex
	n   int
}

// Event implements obs.Sink.
func (c *waitCounter) Event(e obs.Event) {
	if e.Kind == obs.KindStoreWait && e.Name == c.key {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func (c *waitCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestAnalyzeSharedBadLogNamesOwnPart: two concurrent requests carry
// the same malformed log under different part names. When one waits on
// the other's characterization (single flight), each still reports its
// own part name. The pair is repeated until a wait has been observed.
func TestAnalyzeSharedBadLogNamesOwnPart(t *testing.T) {
	m, err := ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		t.Fatal(err)
	}
	// A long valid prefix keeps the parse busy while the second request
	// arrives at the same key.
	bad := append(swfBody(t, 50, 10000), "this is not SWF &&&\n"...)
	good := [][]byte{swfBody(t, 51, 300), swfBody(t, 52, 300)}
	waits := &waitCounter{key: logVarsKey(bad, m)}
	svc := mustNew(t, Config{Jobs: 2, CorpusJobs: -1, Sink: waits})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for attempt := 0; attempt < 20 && waits.count() == 0; attempt++ {
		var wg sync.WaitGroup
		for _, who := range []string{"one", "two"} {
			name := fmt.Sprintf("%s-%d.swf", who, attempt)
			body, ctype := multipartLogs(t, []string{name, "g1.swf", "g2.swf"}, append([][]byte{bad}, good...))
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/analyze", ctype, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var env struct{ Error apiError }
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d (%v), want a 400 envelope", name, resp.StatusCode, err)
					return
				}
				if !strings.HasPrefix(env.Error.Message, name+": swf: line ") {
					t.Errorf("%s: error %q does not name its own part", name, env.Error.Message)
				}
			}()
		}
		wg.Wait()
	}
	if waits.count() == 0 {
		t.Fatal("no request waited on another's characterization in 20 concurrent pairs")
	}
}

// rawRequest writes head and body to the server over one connection,
// closes the sending side, and reads the answer.
func rawRequest(t *testing.T, ts *httptest.Server, head, body string) (*http.Response, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, head+body); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
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

// bodyPaths are the three routes that read a request body, one per
// call site of readBody.
var bodyPaths = []string{"/v1/variables", "/v1/corpus?name=up", "/v1/stream/s/append"}

// TestBodyShorterThanContentLength: a client that declares more bytes
// than it sends before closing gets the 400 bad_request envelope on
// every body-reading route.
func TestBodyShorterThanContentLength(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for _, path := range bodyPaths {
		head := "POST " + path + " HTTP/1.1\r\nHost: test\r\nContent-Type: text/plain\r\nContent-Length: 100\r\n\r\n"
		resp, data := rawRequest(t, ts, head, "0123456789")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", path, resp.StatusCode, data)
		}
		if env := envelope(t, data); env.Code != CodeBadRequest {
			t.Fatalf("%s: error %+v, want bad_request", path, env)
		}
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestChunkedBodyOverCap: a body of undeclared length past
// maxBodyBytes gets the 413 too_large envelope on every body-reading
// route.
func TestChunkedBodyOverCap(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	for _, path := range bodyPaths {
		req := httptest.NewRequest("POST", path, io.LimitReader(zeros{}, maxBodyBytes+1))
		if req.ContentLength != -1 {
			t.Fatalf("request declares Content-Length %d, want none", req.ContentLength)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (%.200s), want 413", path, rec.Code, rec.Body)
		}
		if env := envelope(t, rec.Body.Bytes()); env.Code != CodeTooLarge {
			t.Fatalf("%s: error %+v, want too_large", path, env)
		}
	}
}
