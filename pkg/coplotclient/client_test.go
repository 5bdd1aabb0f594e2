package coplotclient_test

// Every typed wrapper, driven against an in-process coplotd. The
// cached endpoints are checked through their cache keys: X-Coplot-Key
// is store.Key over the canonical option list the server decoded, so a
// key equal to the one built from the expected list proves the
// wrapper's encoding and the server's decoding agree on every option.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coplot/internal/corpus"
	"coplot/internal/machine"
	"coplot/internal/service"
	"coplot/internal/store"
	"coplot/internal/workload"
	"coplot/pkg/coplotclient"
)

// testLog renders a deterministic SWF log from arithmetic alone.
func testLog(shift, n int) []byte {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		submit := i*97 + (i*i*7+shift)%300
		run := 50 + (i*131+shift*17)%3000
		procs := 1 << ((i + shift) % 6)
		fmt.Fprintf(&b, "%d %d 0 %d %d -1 -1 %d %d -1 1 %d 1 %d 1 -1 -1 -1\n",
			i, submit, run, procs, procs, 2*run, 1+(i+shift)%7, 1+(i*3+shift)%5)
	}
	return []byte(b.String())
}

const testCSV = "name,x,y\na,1,10\nb,2,20\nc,3,28\nd,4,41\ne,5,52\n"

// newClient serves a fresh coplotd with known server defaults.
func newClient(t *testing.T) *coplotclient.Client {
	t.Helper()
	svc, err := service.New(service.Config{Jobs: 1, CorpusJobs: -1, Landmarks: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return coplotclient.New(ts.URL+"/", nil)
}

// checkKey fails unless the call succeeded with the cache key store.Key
// derives from endpoint, the canonical options and the input blobs.
func checkKey(t *testing.T, what string, meta *coplotclient.Meta, err error, endpoint string, canon []string, blobs ...[]byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := store.Key(endpoint, canon, blobs...); meta.Key != want {
		t.Errorf("%s: X-Coplot-Key %s, want %s over %q", what, meta.Key, want, canon)
	}
}

func TestCachedWrappersEncodeEveryOption(t *testing.T) {
	ctx := context.Background()
	c := newClient(t)
	log := testLog(0, 200)
	vars := workload.VarRuntimeMedian + "," + workload.VarProcsMedian + "," + workload.VarWorkMedian

	_, meta, err := c.AnalyzeCSV(ctx, []byte(testCSV), coplotclient.AnalyzeOptions{})
	checkKey(t, "AnalyzeCSV defaults", meta, err, "analyze",
		[]string{"prune=0", "seed=7", "procs=128", "landmarks=50", "vars="}, []byte(testCSV))
	_, meta, err = c.AnalyzeCSV(ctx, []byte(testCSV), coplotclient.AnalyzeOptions{
		Prune: 0.25, Procs: 64, Vars: "y,x", Explicit: []string{"seed", "landmarks"},
	})
	checkKey(t, "AnalyzeCSV explicit zeros", meta, err, "analyze",
		[]string{"prune=0.25", "seed=0", "procs=64", "landmarks=0", "vars=y,x"}, []byte(testCSV))

	logs := []coplotclient.NamedLog{{"a.swf", testLog(1, 120)}, {"b.swf", testLog(12, 120)}, {"c.swf", testLog(23, 120)}}
	var blobs [][]byte
	for _, l := range logs {
		blobs = append(blobs, []byte(l.Name), l.Data)
	}
	_, meta, err = c.AnalyzeLogs(ctx, logs, coplotclient.AnalyzeOptions{})
	checkKey(t, "AnalyzeLogs defaults", meta, err, "analyze",
		[]string{"prune=0", "seed=7", "procs=128", "landmarks=50", "vars="}, blobs...)
	_, meta, err = c.AnalyzeLogs(ctx, logs, coplotclient.AnalyzeOptions{Prune: 0.1, Seed: 3, Procs: 64, Landmarks: 2, Vars: vars})
	checkKey(t, "AnalyzeLogs", meta, err, "analyze",
		[]string{"prune=0.1", "seed=3", "procs=64", "landmarks=2", "vars=" + vars}, blobs...)

	machineDefaults := []string{"procs=128", "sched=easy", "alloc=unlimited"}
	nasa := coplotclient.MachineOptions{Procs: 64, Sched: "nqs", Alloc: "pow2"}
	nasaCanon := []string{"procs=64", "sched=nqs", "alloc=pow2"}

	_, meta, err = c.Variables(ctx, log, coplotclient.VariablesOptions{})
	checkKey(t, "Variables defaults", meta, err, "variables", append([]string{"name=log"}, machineDefaults...), log)
	_, meta, err = c.Variables(ctx, log, coplotclient.VariablesOptions{Name: "w", Machine: nasa})
	checkKey(t, "Variables", meta, err, "variables", append([]string{"name=w"}, nasaCanon...), log)

	_, meta, err = c.Hurst(ctx, log, coplotclient.HurstOptions{})
	checkKey(t, "Hurst defaults", meta, err, "hurst", []string{"name=log"}, log)
	_, meta, err = c.Hurst(ctx, log, coplotclient.HurstOptions{Name: "h"})
	checkKey(t, "Hurst", meta, err, "hurst", []string{"name=h"}, log)

	report, n, meta, err := c.Validate(ctx, log, coplotclient.ValidateOptions{})
	checkKey(t, "Validate defaults", meta, err, "validate",
		append(append([]string{"name=log"}, machineDefaults...), "downtime-factor=0", "top-user=0"), log)
	if report == "" || fmt.Sprint(n) != meta.Header.Get("X-Coplot-Validate-Errors") {
		t.Errorf("Validate: report %q, error count %d vs header %q", report, n, meta.Header.Get("X-Coplot-Validate-Errors"))
	}
	_, _, meta, err = c.Validate(ctx, log, coplotclient.ValidateOptions{Name: "v", Machine: nasa, DowntimeFactor: 5, TopUser: 0.5})
	checkKey(t, "Validate", meta, err, "validate",
		append(append([]string{"name=v"}, nasaCanon...), "downtime-factor=5", "top-user=0.5"), log)

	_, meta, err = c.ScaleLoad(ctx, log, coplotclient.ScaleLoadOptions{Method: "scale-runtime", Factor: 2})
	checkKey(t, "ScaleLoad defaults", meta, err, "scale-load", []string{"method=scale-runtime", "factor=2", "procs=128"}, log)
	_, meta, err = c.ScaleLoad(ctx, log, coplotclient.ScaleLoadOptions{Method: "scale-runtime", Factor: 1.5, Procs: 64})
	checkKey(t, "ScaleLoad", meta, err, "scale-load", []string{"method=scale-runtime", "factor=1.5", "procs=64"}, log)

	_, meta, err = c.Generate(ctx, coplotclient.GenerateOptions{Model: "lublin"})
	checkKey(t, "Generate defaults", meta, err, "generate", []string{"model=lublin", "procs=128", "n=10000", "seed=1"})
	_, meta, err = c.Generate(ctx, coplotclient.GenerateOptions{Model: "downey", Procs: 64, N: 40, Explicit: []string{"seed"}})
	checkKey(t, "Generate", meta, err, "generate", []string{"model=downey", "procs=64", "n=40", "seed=0"})
}

func TestCorpusAndMatchWrappers(t *testing.T) {
	ctx := context.Background()
	c := newClient(t)
	nasa := coplotclient.MachineOptions{Procs: 64, Sched: "nqs", Alloc: "pow2"}
	var ids []string
	for i, m := range []coplotclient.MachineOptions{{}, nasa, {}} {
		name, body := fmt.Sprintf("c%d", i), testLog(5*i+5, 150)
		e, _, err := c.CorpusAdmit(ctx, body, coplotclient.CorpusAdmitOptions{Name: name, Machine: m})
		if err != nil {
			t.Fatalf("CorpusAdmit %s: %v", name, err)
		}
		want := machine.Machine{Name: "cli", Procs: 128, Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
		if m == nasa {
			want = machine.Machine{Name: "cli", Procs: 64, Scheduler: machine.SchedulerNQS, Allocator: machine.AllocatorPow2}
		}
		if e.ID != corpus.EntryID(name, want, body) {
			t.Errorf("CorpusAdmit %s: entry %s was not admitted on machine %+v", name, e.ID, want)
		}
		ids = append(ids, e.ID)
	}
	idx, _, err := c.CorpusList(ctx)
	if err != nil || idx.Total != 3 {
		t.Fatalf("CorpusList: %+v, %v", idx, err)
	}
	got, _, err := c.CorpusGet(ctx, ids[1])
	if err != nil || got.Name != "c1" {
		t.Fatalf("CorpusGet: %+v, %v", got, err)
	}

	query := testLog(0, 200)
	blobs := func() [][]byte {
		var out [][]byte
		for _, e := range idx.Entries {
			out = append(out, []byte(e.ID))
		}
		return append(out, query)
	}
	res, meta, err := c.Match(ctx, query, coplotclient.MatchOptions{})
	checkKey(t, "Match defaults", meta, err, "match",
		[]string{"name=query", "seed=7", "landmarks=50", "k=0", "procs=128", "sched=easy", "alloc=unlimited"}, blobs()...)
	if len(res.Neighbors) != 3 {
		t.Errorf("Match: %d neighbors, want 3", len(res.Neighbors))
	}
	full := coplotclient.MatchOptions{Name: "q", Seed: 3, K: 2, Machine: nasa, Explicit: []string{"landmarks"}}
	raw, meta, err := c.MatchRaw(ctx, query, full)
	checkKey(t, "MatchRaw", meta, err, "match",
		[]string{"name=q", "seed=3", "landmarks=0", "k=2", "procs=64", "sched=nqs", "alloc=pow2"}, blobs()...)
	if res, _, err = c.Match(ctx, query, full); err != nil || len(res.Neighbors) != 2 || !strings.Contains(string(raw), `"query":"q"`) {
		t.Errorf("Match k=2: %+v, %v", res, err)
	}

	if _, err := c.CorpusDelete(ctx, ids[1]); err != nil {
		t.Fatalf("CorpusDelete: %v", err)
	}
	var apiErr *coplotclient.Error
	if _, _, err := c.CorpusGet(ctx, ids[1]); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Endpoint != "corpus" {
		t.Fatalf("CorpusGet after delete: %v", err)
	}
}

// pinned asserts stream id pinned exactly want at creation: an append
// carrying any other value of one option is refused 409, naming the
// pinned canonical value.
func pinned(t *testing.T, c *coplotclient.Client, id string, want []string) {
	t.Helper()
	for _, kv := range want {
		k, v, _ := strings.Cut(kv, "=")
		other := map[string]string{"sched": "gang", "alloc": "limited"}[k]
		if other == "" {
			other = "99"
		}
		_, _, err := c.Do(context.Background(), http.MethodPost, "/v1/stream/"+id+"/append?"+k+"="+other, "text/plain", testLog(3, 10))
		var apiErr *coplotclient.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || !strings.Contains(apiErr.Message, "the stream's "+k+"="+v) {
			t.Errorf("stream %s, %s=%s: %v, want a conflict with the pinned %s", id, k, other, err, kv)
		}
	}
}

func TestStreamWrappers(t *testing.T) {
	ctx := context.Background()
	c := newClient(t)
	snap, _, err := c.StreamAppend(ctx, "z", testLog(1, 40), coplotclient.StreamOptions{})
	if err != nil || snap.Stream != "z" || snap.Version != 1 {
		t.Fatalf("StreamAppend defaults: %+v, %v", snap, err)
	}
	pinned(t, c, "z", []string{"seed=7", "procs=128", "sched=easy", "alloc=unlimited", "drift-pos=0.25", "drift-angle=0.35", "landmarks=50"})

	full := coplotclient.StreamOptions{
		Obs: "a", Seed: 5, Machine: coplotclient.MachineOptions{Procs: 64, Sched: "nqs", Alloc: "pow2"},
		DriftPos: 0.3, DriftAngle: 0.4, Explicit: []string{"landmarks"},
	}
	if _, _, err := c.StreamAppend(ctx, "f", testLog(2, 40), full); err != nil {
		t.Fatalf("StreamAppend: %v", err)
	}
	full.Obs = "b"
	if snap, _, err = c.StreamAppend(ctx, "f", testLog(3, 40), full); err != nil || snap.Observations != 2 {
		t.Fatalf("StreamAppend repeating the pinned options: %+v, %v", snap, err)
	}
	pinned(t, c, "f", []string{"seed=5", "procs=64", "sched=nqs", "alloc=pow2", "drift-pos=0.3", "drift-angle=0.4", "landmarks=0"})

	if snap, _, err = c.StreamGet(ctx, "f"); err != nil || snap.Version != 2 {
		t.Fatalf("StreamGet: %+v, %v", snap, err)
	}
	if ids, _, err := c.Streams(ctx); err != nil || strings.Join(ids, ",") != "f,z" {
		t.Fatalf("Streams: %v, %v", ids, err)
	}
	if _, err := c.StreamDelete(ctx, "f"); err != nil {
		t.Fatalf("StreamDelete: %v", err)
	}
	var apiErr *coplotclient.Error
	if _, _, err := c.StreamGet(ctx, "f"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Fatalf("StreamGet after delete: %v", err)
	}
}

// TestQueryArguments holds Query to its argument contract: a pointer
// encodes like the struct it points at, and anything that is not an
// options struct, or an Explicit name the struct does not declare,
// panics with a message naming the mistake.
func TestQueryArguments(t *testing.T) {
	opts := coplotclient.AnalyzeOptions{Procs: 64, Explicit: []string{"seed"}}
	if got, want := coplotclient.Query(&opts), "?procs=64&seed=0"; got != want {
		t.Errorf("Query(&opts) = %q, want %q", got, want)
	}
	if got, want := coplotclient.Query(opts), "?procs=64&seed=0"; got != want {
		t.Errorf("Query(opts) = %q, want %q", got, want)
	}
	for _, c := range []struct {
		name string
		arg  any
		want string
	}{
		{"non-struct", 3, "int is not an options struct"},
		{"nil pointer", (*coplotclient.MatchOptions)(nil), "is not an options struct"},
		{"misspelt Explicit", coplotclient.MatchOptions{Explicit: []string{"landmark"}}, `Explicit names "landmark"`},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one containing %q", c.name, msg, c.want)
				}
			}()
			coplotclient.Query(c.arg)
		}()
	}
}
