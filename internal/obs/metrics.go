package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"coplot/internal/store"
)

// ManifestSchema is the current manifest format version; readers reject
// manifests written by a different major layout.
const ManifestSchema = 1

// Manifest condenses one engine run into a machine-readable record:
// what ran, with which settings, how long each task took, and how well
// the artifact store deduplicated work. Two runs with equal seed and
// settings produce manifests that are identical after Stable() strips
// the wall-clock-dependent fields.
type Manifest struct {
	// Schema is the manifest format version (ManifestSchema).
	Schema int `json:"schema"`
	// Tool names the CLI that produced the run (experiments, coplot, hurst).
	Tool string `json:"tool"`
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
	// Seed is the master seed of the run (0 when the tool has none).
	Seed uint64 `json:"seed"`
	// Jobs is the requested worker bound (0 = GOMAXPROCS).
	Jobs int `json:"jobs"`
	// Timeout is the per-task wall-clock budget ("0s" = none).
	Timeout string `json:"timeout"`
	// Started is the run.start wall-clock time (timing field).
	Started time.Time `json:"started"`
	// ElapsedMS is the run's total wall time in milliseconds (timing field).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Tasks lists every scheduled task, sorted by name.
	Tasks []TaskRecord `json:"tasks"`
	// Failures summarizes the run's failure set; nil for a clean run.
	Failures *FailureSummary `json:"failures,omitempty"`
	// Store aggregates the artifact-store counters.
	Store StoreStats `json:"store"`
	// Storage lists the store backend's per-tier counters (memory,
	// disk, peer:<url>), top tier first, as the backend's Stats
	// reports them. Unlike Store, which is folded from the event
	// stream, Storage is stamped by the manifest's producer from the
	// backend itself; batch CLIs omit it. All its counters are traffic
	// (timing fields): Stable() drops the whole list.
	Storage []store.TierStats `json:"storage,omitempty"`
	// Pool aggregates the worker-pool occupancy samples.
	Pool PoolStats `json:"pool"`
	// Stream aggregates the live-stream counters (stream.update /
	// stream.drift events); nil when the run served no streams, so
	// batch-CLI manifests are unchanged by the streaming layer.
	Stream *StreamStats `json:"stream,omitempty"`
	// Corpus snapshots the reference-corpus counters; nil outside the
	// serving layer, so batch-CLI manifests are unchanged by it. Stamped
	// by the producer (like Storage), not folded from the event stream.
	Corpus *CorpusStats `json:"corpus,omitempty"`
}

// CorpusStats snapshots the workload-matching corpus surfaced on
// /metrics. Entries, Seeded and the admit counters are deterministic
// for a given request sequence; MatchMS is wall time (timing field).
type CorpusStats struct {
	// Entries is the replica's local corpus index size.
	Entries int `json:"entries"`
	// Seeded counts the built-in paper observations present.
	Seeded int `json:"seeded"`
	// Admits counts uploads accepted through POST /v1/corpus.
	Admits uint64 `json:"admits"`
	// Rejects counts uploads that failed admission validation.
	Rejects uint64 `json:"rejects"`
	// Matches counts completed /v1/match computations (cache hits
	// excluded — they never reach the matcher).
	Matches uint64 `json:"matches"`
	// MatchMS is the cumulative match wall time in milliseconds
	// (timing field).
	MatchMS float64 `json:"match_ms"`
}

// StreamStats aggregates the streaming layer's event counters. Both
// counts are deterministic for a given append sequence, so Stable()
// keeps them.
type StreamStats struct {
	// Updates counts accepted appends across all streams.
	Updates uint64 `json:"updates"`
	// Drifts counts drift threshold crossings across all streams.
	Drifts uint64 `json:"drifts,omitempty"`
}

// TaskRecord is one task's outcome in a Manifest.
type TaskRecord struct {
	// Name is the experiment or task label.
	Name string `json:"name"`
	// Deps are the task's dependency edges, as registered.
	Deps []string `json:"deps,omitempty"`
	// Status is "ok", "error", "skipped", or "cancelled".
	Status string `json:"status"`
	// ElapsedMS is the task's wall time in milliseconds (timing field).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Err is the failure message for non-ok statuses.
	Err string `json:"error,omitempty"`
	// Reason classifies a skipped task (obs.SkipReasonUpstreamFailed).
	Reason string `json:"reason,omitempty"`
}

// FailureSummary condenses what went wrong in a run: which tasks
// failed and which dependents were skipped because of them. All fields
// are deterministic for a given fault schedule, so Stable() keeps the
// summary intact.
type FailureSummary struct {
	// Degraded reports a keep-going run that completed with failures.
	Degraded bool `json:"degraded,omitempty"`
	// Failed lists the tasks whose final status is "error", sorted.
	Failed []string `json:"failed,omitempty"`
	// Skipped lists the dependents abandoned because an upstream task
	// failed, sorted.
	Skipped []string `json:"skipped,omitempty"`
}

// StoreStats aggregates artifact-store traffic. Lookups, Misses and
// HitRatio are deterministic for a given run configuration; Waits
// depends on scheduling (a lookup that waits under one interleaving
// hits under another) and is therefore a timing field.
type StoreStats struct {
	// Lookups counts store lookups (hits + waits + misses).
	Lookups int `json:"lookups"`
	// Misses counts lookups that computed their artifact.
	Misses int `json:"misses"`
	// Waits counts lookups that blocked on an in-flight computation
	// (timing field).
	Waits int `json:"waits"`
	// Evictions counts artifacts dropped by the store's byte-limit LRU
	// (zero unless a limit is set; deterministic for a given lookup
	// sequence).
	Evictions int `json:"evictions,omitempty"`
	// HitRatio is (Lookups-Misses)/Lookups, 0 when there was no traffic.
	HitRatio float64 `json:"hit_ratio"`
}

// PoolStats aggregates worker-pool occupancy. Capacity is a setting;
// MaxInUse and Samples depend on scheduling (timing fields).
type PoolStats struct {
	// Capacity is the pool size the run executed with.
	Capacity int `json:"capacity"`
	// MaxInUse is the peak concurrent occupancy observed (timing field).
	MaxInUse int `json:"max_in_use"`
	// Samples counts the occupancy snapshots taken (timing field).
	Samples int `json:"samples"`
}

// Stable returns a copy of m with every timing-dependent field zeroed:
// Started, ElapsedMS, per-task ElapsedMS, Store.Waits, Pool.MaxInUse,
// Pool.Samples and the per-tier Storage counters. Golden comparisons and the determinism tests
// compare Stable() forms; everything that remains is a pure function of
// the run configuration. Skip reasons and the failure summary survive:
// for a given fault schedule they are deterministic.
func (m *Manifest) Stable() *Manifest {
	c := *m
	c.Started = time.Time{}
	c.ElapsedMS = 0
	c.Storage = nil
	c.Store.Waits = 0
	c.Pool.MaxInUse = 0
	c.Pool.Samples = 0
	c.Tasks = append([]TaskRecord(nil), m.Tasks...)
	for i := range c.Tasks {
		c.Tasks[i].ElapsedMS = 0
	}
	if m.Stream != nil {
		st := *m.Stream
		c.Stream = &st
	}
	if m.Corpus != nil {
		cs := *m.Corpus
		cs.MatchMS = 0
		c.Corpus = &cs
	}
	if m.Failures != nil {
		f := *m.Failures
		f.Failed = append([]string(nil), m.Failures.Failed...)
		f.Skipped = append([]string(nil), m.Failures.Skipped...)
		c.Failures = &f
	}
	return &c
}

// WriteFile writes m as indented JSON to path, creating parent
// directories as needed.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest loads a manifest written by WriteFile and rejects
// unknown schema versions.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("%s: manifest schema %d, this build reads %d", path, m.Schema, ManifestSchema)
	}
	return &m, nil
}

// RunInfo carries the run-level settings the event stream does not
// know: which tool ran, its seed, and the requested jobs/timeout.
type RunInfo struct {
	// Tool names the producing CLI.
	Tool string
	// Seed is the effective master seed (after defaulting).
	Seed uint64
	// Jobs is the requested worker bound.
	Jobs int
	// Timeout is the per-task budget.
	Timeout time.Duration
}

// Metrics is a Sink that aggregates a run's events into a Manifest.
// One Metrics observes one run; create a fresh one per invocation.
type Metrics struct {
	mu       sync.Mutex
	started  time.Time
	elapsed  time.Duration
	tasks    map[string]*TaskRecord
	store    StoreStats
	pool     PoolStats
	stream   StreamStats
	degraded bool
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{tasks: map[string]*TaskRecord{}}
}

// Event implements Sink by folding e into the aggregate counters.
func (m *Metrics) Event(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case KindRunStart:
		m.started = e.Time
		if e.Capacity > m.pool.Capacity {
			m.pool.Capacity = e.Capacity
		}
	case KindRunFinish:
		m.elapsed = e.Elapsed
	case KindTaskStart:
		t := m.task(e.Name)
		t.Deps = append([]string(nil), e.Deps...)
	case KindTaskFinish:
		t := m.task(e.Name)
		t.ElapsedMS = float64(e.Elapsed) / float64(time.Millisecond)
		t.Status, t.Err = "ok", ""
		if e.Err != "" {
			t.Status, t.Err = "error", e.Err
		}
	case KindTaskSkip:
		t := m.task(e.Name)
		t.Status, t.Err = "skipped", e.Err
		t.Reason = e.Reason
	case KindTaskCancel:
		t := m.task(e.Name)
		t.Status, t.Err = "cancelled", e.Err
	case KindRunDegraded:
		m.degraded = true
	case KindStoreHit:
		m.store.Lookups++
	case KindStoreMiss:
		m.store.Lookups++
		m.store.Misses++
	case KindStoreWait:
		m.store.Lookups++
		m.store.Waits++
	case KindStoreEvict:
		m.store.Evictions++
	case KindStreamUpdate:
		m.stream.Updates++
	case KindStreamDrift:
		m.stream.Drifts++
	case KindPoolSample:
		m.pool.Samples++
		if e.InUse > m.pool.MaxInUse {
			m.pool.MaxInUse = e.InUse
		}
		if e.Capacity > m.pool.Capacity {
			m.pool.Capacity = e.Capacity
		}
	}
}

// task returns the record for name, creating it on first sight.
// Callers hold m.mu.
func (m *Metrics) task(name string) *TaskRecord {
	t, ok := m.tasks[name]
	if !ok {
		t = &TaskRecord{Name: name, Status: "cancelled"}
		m.tasks[name] = t
	}
	return t
}

// Manifest snapshots the aggregate into a Manifest, stamping the
// run-level settings from info. Tasks come back sorted by name so the
// output is deterministic regardless of completion order.
func (m *Metrics) Manifest(info RunInfo) *Manifest {
	m.mu.Lock()
	defer m.mu.Unlock()
	mf := &Manifest{
		Schema:    ManifestSchema,
		Tool:      info.Tool,
		GoVersion: runtime.Version(),
		Seed:      info.Seed,
		Jobs:      info.Jobs,
		Timeout:   info.Timeout.String(),
		Started:   m.started,
		ElapsedMS: float64(m.elapsed) / float64(time.Millisecond),
		Store:     m.store,
		Pool:      m.pool,
	}
	if mf.Store.Lookups > 0 {
		mf.Store.HitRatio = float64(mf.Store.Lookups-mf.Store.Misses) / float64(mf.Store.Lookups)
	}
	if m.stream != (StreamStats{}) {
		st := m.stream
		mf.Stream = &st
	}
	for _, t := range m.tasks {
		mf.Tasks = append(mf.Tasks, *t)
	}
	sort.Slice(mf.Tasks, func(i, j int) bool { return mf.Tasks[i].Name < mf.Tasks[j].Name })
	sum := FailureSummary{Degraded: m.degraded}
	for _, t := range mf.Tasks {
		switch t.Status {
		case "error":
			sum.Failed = append(sum.Failed, t.Name)
		case "skipped":
			sum.Skipped = append(sum.Skipped, t.Name)
		}
	}
	if sum.Degraded || len(sum.Failed) > 0 || len(sum.Skipped) > 0 {
		mf.Failures = &sum
	}
	return mf
}
