// Package obs is the observability layer of the experiment engine: a
// structured event model describing what a run did (experiment
// start/finish/skip/cancel and degraded-run outcomes,
// artifact-store hit/miss/wait, worker-pool occupancy), a pluggable
// Sink interface the engine emits those events to, and two concrete
// sinks — a JSON-lines trace writer for offline inspection and an
// aggregating metrics sink that condenses a run into a Manifest
// (per-task wall time, dependency edges, cache hit ratio, run
// settings, failure summary).
//
// The engine emits events from many goroutines concurrently, so every
// Sink implementation must be safe for concurrent use. Events carry
// wall-clock fields; the Manifest separates those from the
// deterministic fields (Stable) so two runs with the same seed and
// settings can be compared byte-for-byte.
package obs

import "time"

// Kind classifies an Event.
type Kind string

// Event kinds emitted by the engine. "task" covers both DAG experiments
// (engine.Run) and per-item fan-out work (engine.Map).
const (
	// KindRunStart opens a run; Capacity holds the worker-pool size.
	KindRunStart Kind = "run.start"
	// KindRunFinish closes a run; Elapsed holds its wall-clock time.
	KindRunFinish Kind = "run.finish"
	// KindTaskStart marks a task entering execution (after its
	// dependencies resolved and a worker slot was acquired); Deps holds
	// its dependency edges.
	KindTaskStart Kind = "task.start"
	// KindTaskFinish marks a task leaving execution; Elapsed holds its
	// wall time and Err its failure, if any.
	KindTaskFinish Kind = "task.finish"
	// KindTaskSkip marks a task abandoned because a dependency failed;
	// Reason carries the skip classification (SkipReasonUpstreamFailed).
	KindTaskSkip Kind = "task.skip"
	// KindTaskCancel marks a task abandoned by run cancellation or
	// timeout before it started executing.
	KindTaskCancel Kind = "task.cancel"
	// KindRunDegraded marks a keep-going run that completed with
	// failures: Failed counts the failed tasks, Skipped their abandoned
	// dependents, and Err summarizes the failure set.
	KindRunDegraded Kind = "run.degraded"
	// KindStoreHit marks an artifact-store lookup answered from cache.
	KindStoreHit Kind = "store.hit"
	// KindStoreMiss marks the lookup that computed an artifact; Elapsed
	// holds the compute time.
	KindStoreMiss Kind = "store.miss"
	// KindStoreWait marks a lookup that blocked on another goroutine's
	// in-flight computation (single flight); Elapsed holds the time
	// spent blocked.
	KindStoreWait Kind = "store.wait"
	// KindStoreEvict marks an artifact dropped by the store's byte-limit
	// LRU eviction; its next lookup will recompute it.
	KindStoreEvict Kind = "store.evict"
	// KindPoolSample snapshots worker-pool occupancy on every slot
	// acquire/release: InUse of Capacity workers busy.
	KindPoolSample Kind = "pool.sample"
	// KindStreamUpdate marks one accepted append on a live stream:
	// Name holds the stream id and Version the snapshot version the
	// append produced.
	KindStreamUpdate Kind = "stream.update"
	// KindStreamDrift marks a drift threshold crossing between
	// consecutive stream embeddings: Name holds the stream id, Reason
	// the "kind:subject" pair (e.g. "position:CTC"), Delta the
	// measured excursion, and Version the snapshot that carried it.
	KindStreamDrift Kind = "stream.drift"
)

// Event is one structured observation about a run. Unused fields stay
// zero and are omitted from the JSON trace.
type Event struct {
	// Time is when the event was emitted (filled by Emit if zero).
	Time time.Time `json:"time"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Name identifies the subject: an experiment or task label for
	// task.* events, an artifact key for store.* events.
	Name string `json:"name,omitempty"`
	// Deps lists the subject's dependency edges (task.start only).
	Deps []string `json:"deps,omitempty"`
	// Elapsed is the duration the event measures, in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Err carries the failure message of task.finish/skip/cancel.
	Err string `json:"err,omitempty"`
	// InUse is the pool occupancy of a pool.sample.
	InUse int `json:"in_use,omitempty"`
	// Capacity is the pool size of a pool.sample or run.start.
	Capacity int `json:"capacity,omitempty"`
	// Reason classifies a task.skip (SkipReasonUpstreamFailed).
	Reason string `json:"reason,omitempty"`
	// Failed counts the failed tasks of a run.degraded.
	Failed int `json:"failed,omitempty"`
	// Skipped counts the skipped dependents of a run.degraded.
	Skipped int `json:"skipped,omitempty"`
	// Version is the snapshot version of a stream.update/stream.drift.
	Version uint64 `json:"version,omitempty"`
	// Delta is the measured excursion of a stream.drift.
	Delta float64 `json:"delta,omitempty"`
}

// SkipReasonUpstreamFailed is the Reason of a task.skip emitted for a
// task whose dependency (direct or transitive) failed.
const SkipReasonUpstreamFailed = "upstream-failed"

// Sink consumes engine events. Implementations must be safe for
// concurrent use; Event must not block longer than necessary, since it
// runs inline on engine worker goroutines.
type Sink interface {
	// Event consumes one event.
	Event(Event)
}

// Emit sends e to sink, stamping Time if unset. A nil sink is a no-op,
// so emitters need no guards.
func Emit(sink Sink, e Event) {
	if sink == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	sink.Event(e)
}

// Discard is a Sink that drops every event.
var Discard Sink = discard{}

type discard struct{}

// Event implements Sink by doing nothing.
func (discard) Event(Event) {}

// Multi fans every event out to each non-nil sink in order. With zero
// or one usable sink it collapses to Discard or the sink itself.
func Multi(sinks ...Sink) Sink {
	var kept []Sink
	for _, s := range sinks {
		if s != nil && s != Discard {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return multi(kept)
}

type multi []Sink

// Event implements Sink by forwarding to every member.
func (m multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}
