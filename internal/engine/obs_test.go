package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"coplot/internal/obs"
)

// recorder is a threadsafe test sink.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Event(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) byKind() map[obs.Kind][]obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[obs.Kind][]obs.Event{}
	for _, e := range r.events {
		m[e.Kind] = append(m[e.Kind], e)
	}
	return m
}

// obsRegistry is a diamond DAG whose tasks all read one shared
// artifact, so a run exercises task, store, and pool events at once.
func obsRegistry(t *testing.T) *Registry[*Store] {
	t.Helper()
	r := NewRegistry[*Store]()
	artifact := func(ctx context.Context, s *Store) (any, error) {
		return Memo(s, "artifact:shared", func() (int, error) {
			time.Sleep(time.Millisecond)
			return 7, nil
		})
	}
	r.MustRegister("base", nil, artifact)
	r.MustRegister("left", []string{"base"}, artifact)
	r.MustRegister("right", []string{"base"}, artifact)
	r.MustRegister("top", []string{"left", "right"}, artifact)
	return r
}

func TestRunEmitsLifecycleEvents(t *testing.T) {
	rec := &recorder{}
	reg := obsRegistry(t)
	st, _ := memStore(0, rec)
	_, err := Run(context.Background(), reg, []string{"top"}, st, Options{Jobs: 2, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	kinds := rec.byKind()
	if n := len(kinds[obs.KindRunStart]); n != 1 {
		t.Fatalf("run.start events = %d", n)
	}
	if kinds[obs.KindRunStart][0].Capacity != 2 {
		t.Fatalf("run.start capacity = %+v", kinds[obs.KindRunStart][0])
	}
	if n := len(kinds[obs.KindRunFinish]); n != 1 {
		t.Fatalf("run.finish events = %d", n)
	}
	if len(kinds[obs.KindTaskStart]) != 4 || len(kinds[obs.KindTaskFinish]) != 4 {
		t.Fatalf("task events = %d starts, %d finishes",
			len(kinds[obs.KindTaskStart]), len(kinds[obs.KindTaskFinish]))
	}
	// Dependency edges ride on task.start.
	deps := map[string][]string{}
	for _, e := range kinds[obs.KindTaskStart] {
		deps[e.Name] = e.Deps
	}
	if len(deps["top"]) != 2 || deps["top"][0] != "left" {
		t.Fatalf("top deps = %v", deps["top"])
	}
	// The shared artifact: exactly one miss, three hit-or-waits.
	misses := len(kinds[obs.KindStoreMiss])
	served := len(kinds[obs.KindStoreHit]) + len(kinds[obs.KindStoreWait])
	if misses != 1 || served != 3 {
		t.Fatalf("store events: %d misses, %d served", misses, served)
	}
	// Pool samples: one per acquire and release, occupancy within bounds.
	samples := kinds[obs.KindPoolSample]
	if len(samples) != 8 {
		t.Fatalf("pool samples = %d, want 8", len(samples))
	}
	for _, s := range samples {
		if s.InUse < 0 || s.InUse > 2 || s.Capacity != 2 {
			t.Fatalf("occupancy sample out of bounds: %+v", s)
		}
	}
	// Every task.finish carries a positive elapsed time.
	for _, e := range kinds[obs.KindTaskFinish] {
		if e.Elapsed <= 0 {
			t.Fatalf("task.finish without elapsed: %+v", e)
		}
	}
}

func TestRunEmitsSkipEvents(t *testing.T) {
	rec := &recorder{}
	r := NewRegistry[int]()
	boom := errors.New("boom")
	r.MustRegister("bad", nil, func(ctx context.Context, env int) (any, error) {
		return nil, boom
	})
	r.MustRegister("dependent", []string{"bad"}, nopRun)
	_, err := Run(context.Background(), r, []string{"dependent"}, 0, Options{Jobs: 1, Sink: rec})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	kinds := rec.byKind()
	if len(kinds[obs.KindTaskSkip]) != 1 || kinds[obs.KindTaskSkip][0].Name != "dependent" {
		t.Fatalf("skip events = %+v", kinds[obs.KindTaskSkip])
	}
	var badFinish *obs.Event
	for i := range kinds[obs.KindTaskFinish] {
		if kinds[obs.KindTaskFinish][i].Name == "bad" {
			badFinish = &kinds[obs.KindTaskFinish][i]
		}
	}
	if badFinish == nil || badFinish.Err == "" {
		t.Fatalf("failing task.finish lacks error: %+v", badFinish)
	}
}

// TestManifestDeterministicAcrossSerialRuns is the determinism
// acceptance check at the engine level: two serial runs of the same
// registry produce byte-identical manifests once Stable() strips the
// wall-clock fields.
func TestManifestDeterministicAcrossSerialRuns(t *testing.T) {
	manifest := func() string {
		m := obs.NewMetrics()
		reg := obsRegistry(t)
		st, _ := memStore(0, m)
		if _, err := Run(context.Background(), reg, []string{"top"}, st, Options{Jobs: 1, Sink: m}); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(m.Manifest(obs.RunInfo{Tool: "test", Seed: 1, Jobs: 1}).Stable(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first, second := manifest(), manifest()
	if first != second {
		t.Fatalf("serial manifests differ after Stable():\n%s\nvs\n%s", first, second)
	}
}

func TestMapEmitsEvents(t *testing.T) {
	rec := &recorder{}
	paths := []string{"a.swf", "b.swf", "c.swf"}
	opts := Options{Jobs: 2, Sink: rec}
	_, err := Map(context.Background(), paths, opts, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := rec.byKind()
	if len(kinds[obs.KindTaskStart]) != 3 || len(kinds[obs.KindTaskFinish]) != 3 {
		t.Fatalf("task events = %d/%d", len(kinds[obs.KindTaskStart]), len(kinds[obs.KindTaskFinish]))
	}
	seen := map[string]bool{}
	for _, e := range kinds[obs.KindTaskFinish] {
		seen[e.Name] = true
	}
	for _, p := range paths {
		if !seen[p] {
			t.Fatalf("no finish event for %s (have %v)", p, seen)
		}
	}
	if len(kinds[obs.KindPoolSample]) != 6 {
		t.Fatalf("pool samples = %d, want 6", len(kinds[obs.KindPoolSample]))
	}
}
