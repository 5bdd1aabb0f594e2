package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"coplot"
	"coplot/internal/swf"
)

// chunkedSWF renders a deterministic synthetic log and splits it into k
// parseable SWF fragments.
func chunkedSWF(t *testing.T, seed uint64, jobs, k int) [][]byte {
	t.Helper()
	log := coplot.GenerateWorkload(coplot.Models(128)[4], seed, jobs)
	var buf bytes.Buffer
	if err := swf.Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, ln := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	out := make([][]byte, 0, k)
	for c := 0; c < k; c++ {
		lo, hi := c*len(lines)/k, (c+1)*len(lines)/k
		out = append(out, bytes.Join(lines[lo:hi], nil))
	}
	return out
}

// appendChunk posts one chunk and decodes the snapshot answer.
func appendChunk(t *testing.T, ts *httptest.Server, path string, chunk []byte) (map[string]any, *http.Response) {
	t.Helper()
	resp, body := post(t, ts, path, chunk)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("%s: bad snapshot JSON: %v", path, err)
	}
	return snap, resp
}

// TestStreamLifecycle drives one stream through create, append,
// snapshot fetch, list, option conflict, and delete.
func TestStreamLifecycle(t *testing.T) {
	svc, err := New(Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	// Three observations make the stream embeddable.
	for i, seed := range []uint64{11, 12, 13} {
		chunks := chunkedSWF(t, seed, 60, 2)
		for _, c := range chunks {
			snap, _ := appendChunk(t, ts, fmt.Sprintf("/v1/stream/s1/append?obs=o%d&seed=5", i), c)
			if snap["stream"] != "s1" {
				t.Fatalf("snapshot names stream %v", snap["stream"])
			}
		}
	}
	resp, body := post(t, ts, "/v1/stream/s1/append?obs=o0&seed=9", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting seed answered %d: %s", resp.StatusCode, body)
	}

	r, err := http.Get(ts.URL + "/v1/stream/s1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d %s", r.StatusCode, data)
	}
	var snap struct {
		Version uint64 `json:"version"`
		Status  string `json:"status"`
		Points  []any  `json:"points"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 6 || snap.Status != "ok" || len(snap.Points) != 3 {
		t.Fatalf("final snapshot: %+v", snap)
	}

	r, err = http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(data), `"s1"`) {
		t.Fatalf("stream list missing s1: %s", data)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/s1", nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", r.StatusCode)
	}
	if r, err = http.Get(ts.URL + "/v1/stream/s1"); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted stream still answers %d", r.StatusCode)
	}

	m := svc.Manifest()
	if m.Stream == nil || m.Stream.Updates != 6 {
		t.Fatalf("manifest stream stats: %+v", m.Stream)
	}
}

// sseWatcher consumes a /watch feed until its context dies or the feed
// reaches lastVersion, asserting version monotonicity as it goes.
func sseWatcher(t *testing.T, ctx context.Context, base, id string, lastVersion uint64, sawOne chan<- struct{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream/"+id+"/watch", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("watch %s: content type %q", id, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last uint64
	inSnapshot := false
	notified := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: snapshot":
			inSnapshot = true
		case line == "event: drift":
			inSnapshot = false
		case strings.HasPrefix(line, "id: ") && inSnapshot:
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				return fmt.Errorf("watch %s: bad id line %q", id, line)
			}
			if v <= last {
				return fmt.Errorf("watch %s: version %d after %d", id, v, last)
			}
			last = v
			if !notified {
				notified = true
				if sawOne != nil {
					close(sawOne)
				}
			}
			if v >= lastVersion {
				return nil
			}
		}
	}
	// A cancelled context surfaces as a read error; that is a normal
	// exit for the killed watcher.
	if ctx.Err() != nil {
		return nil
	}
	return sc.Err()
}

// TestStreamConcurrentAppendersAndWatchers is the streaming layer's
// race acceptance test: N appenders drive N distinct streams while an
// SSE watcher follows each; one watcher is killed mid-stream. Appends
// must all succeed with strictly increasing versions, the surviving
// watchers must observe monotone versions up to the final one, and the
// killed watcher must not perturb any of it. Run with -race.
func TestStreamConcurrentAppendersAndWatchers(t *testing.T) {
	svc, err := New(Config{Jobs: 2, MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const streams = 4
	const chunksPerObs = 4
	const obsPerStream = 3
	lastVersion := uint64(chunksPerObs * obsPerStream)

	// Stage the chunks up front so appender goroutines only do I/O.
	chunks := make([][][]byte, streams)
	for i := range chunks {
		for j := 0; j < obsPerStream; j++ {
			chunks[i] = append(chunks[i], chunkedSWF(t, uint64(100+10*i+j), 48, chunksPerObs)...)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*streams)

	watchCtx, killWatcher := context.WithCancel(context.Background())
	defer killWatcher()
	firstEvent := make(chan struct{})
	for i := 0; i < streams; i++ {
		i := i
		id := fmt.Sprintf("s%d", i)

		// The stream must exist before its watcher subscribes.
		appendChunk(t, ts, "/v1/stream/"+id+"/append?obs=o0", chunks[i][0])

		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var sawOne chan<- struct{}
			if i == 0 {
				ctx = watchCtx // the watcher that gets killed mid-stream
				sawOne = firstEvent
			}
			if err := sseWatcher(t, ctx, ts.URL, id, lastVersion, sawOne); err != nil {
				errs <- fmt.Errorf("watcher %s: %w", id, err)
			}
		}()

		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				// Kill watcher 0 after it has seen at least one event,
				// while its stream is still being appended to.
				<-firstEvent
				killWatcher()
			}
			version := uint64(1)
			for c := 1; c < len(chunks[i]); c++ {
				obsName := fmt.Sprintf("o%d", c%obsPerStream)
				resp, body := post(t, ts, "/v1/stream/"+id+"/append?obs="+obsName, chunks[i][c])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("append %s chunk %d: %d %s", id, c, resp.StatusCode, body)
					return
				}
				v, err := strconv.ParseUint(resp.Header.Get("X-Coplot-Stream-Version"), 10, 64)
				if err != nil || v != version+1 {
					errs <- fmt.Errorf("append %s chunk %d: version header %q after %d", id, c, resp.Header.Get("X-Coplot-Stream-Version"), version)
					return
				}
				version = v
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every stream — including the one whose watcher died — must have
	// accepted every append.
	for i := 0; i < streams; i++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/stream/s%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var snap struct {
			Version uint64 `json:"version"`
			Status  string `json:"status"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Version != lastVersion || snap.Status != "ok" {
			t.Fatalf("stream s%d final snapshot: %+v", i, snap)
		}
	}
}

// TestStreamPinnedOptionsCompareDecodedValues holds a follow-up
// append's pinned options to their decoded values: another spelling of
// the same value is the same option, a different value is a conflict.
func TestStreamPinnedOptionsCompareDecodedValues(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	chunks := chunkedSWF(t, 21, 60, 3)
	appendChunk(t, ts, "/v1/stream/p/append?obs=a&seed=5&drift-pos=0.25", chunks[0])
	appendChunk(t, ts, "/v1/stream/p/append?obs=a&seed=05&drift-pos=0.250", chunks[1])
	resp, body := post(t, ts, "/v1/stream/p/append?obs=a&seed=6", chunks[2])
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "seed=6 conflicts with the stream's seed=5") {
		t.Fatalf("seed=6 answered %d: %s", resp.StatusCode, body)
	}
}

// TestStreamWatchRejectsUnknownOptions holds the SSE feed to the rule
// every other /v1 route follows: an undeclared query parameter is a
// 400 naming it, not a silently ignored subscription.
func TestStreamWatchRejectsUnknownOptions(t *testing.T) {
	svc := mustNew(t, Config{Jobs: 1, CorpusJobs: -1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	appendChunk(t, ts, "/v1/stream/w/append", chunkedSWF(t, 22, 30, 1)[0])
	resp, err := http.Get(ts.URL + "/v1/stream/w/watch?bogus=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("watch?bogus=1 answered %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	body, _ := io.ReadAll(resp.Body)
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil ||
		env.Error.Code != CodeBadRequest || env.Error.Endpoint != "stream-watch" || !strings.Contains(env.Error.Message, `"bogus"`) {
		t.Fatalf("watch?bogus=1 answered %s", body)
	}
}
