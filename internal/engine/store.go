package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coplot/internal/obs"
	"coplot/internal/store"
)

// Store is a memoized artifact cache shared by the experiments of one
// run — and, since the serving layer arrived, by every request of a
// long-running process. Each key is computed exactly once: the first
// caller runs the compute function while concurrent callers for the
// same key block until the result (or error) is available. Upstream
// artifacts — the generated site logs, the workload tables, the
// synthetic model logs, the Hurst matrix — are stored once and read by
// every downstream experiment, so a full suite run derives each of
// them a single time no matter how many experiments consume it or on
// how many workers they run.
//
// The Store itself owns only the computation semantics: single-flight
// deduplication, eviction of failed computations so the next lookup
// recomputes, and the obs event stream. Where completed artifacts live
// — and for how long — belongs to the store.Backend it is built over: an
// in-memory LRU, a memory-over-disk tier that survives restarts, or a
// peer-aware cluster tier. Its owner keeps the backend for residency
// and statistics; the Store has no setter or getter for it. An
// artifact the backend evicts is recomputed on its next lookup;
// in-flight computations are never evicted.
//
// Cached values are shared across goroutines; compute functions must
// return values that downstream readers treat as immutable.
type Store struct {
	mu       sync.Mutex
	inflight map[string]*flight
	backend  store.Backend
	sink     obs.Sink
}

// flight is one in-progress computation; done closes when val/err are
// set and the artifact (on success) has been handed to the backend.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewStore returns an empty artifact store that keeps completed
// artifacts in backend and reports its cache events (hit, miss,
// single-flight wait, eviction) to sink (nil = none).
func NewStore(backend store.Backend, sink obs.Sink) *Store {
	return &Store{inflight: map[string]*flight{}, backend: backend, sink: sink}
}

// Do returns the artifact under key, computing it with compute on the
// first call. A failed computation is evicted rather than cached:
// callers already blocked on the in-flight compute observe the error
// (unless it is a context error, see DoSized), and the next Do for the
// key computes afresh. Do artifacts report size zero, so they are
// exempt from the byte limit; callers with large artifacts should use
// DoSized.
func (s *Store) Do(key string, compute func() (any, error)) (any, error) {
	return s.DoSized(key, func() (any, int64, error) {
		v, err := compute()
		return v, 0, err
	})
}

// DoSized is Do for size-accounted artifacts: compute additionally
// reports the artifact's resident size in bytes, which counts against
// the backend's byte cap. Touching a cached entry (hit or wait) marks it
// most recently used.
//
// A caller that waited on another caller's flight shares its value or
// error, except a context error: a cancellation or deadline belongs to
// the caller whose compute saw it, so the waiter looks the key up
// again and, on a miss, computes under its own compute function. A
// compute that watches its caller's context then fails fast if the
// waiter's own context is dead too.
func (s *Store) DoSized(key string, compute func() (any, int64, error)) (any, error) {
	// Backend Get/Put happen outside s.mu: a backend may do real I/O
	// (disk reads, or peer HTTP round-trips in cluster mode), and
	// holding the store lock across that would serialize every key in
	// the process behind one slow tier. The loop re-checks the inflight
	// table after each unlocked probe, so single-flight still holds:
	// a key computes at most once at a time.
	var f *flight
	for {
		s.mu.Lock()
		if g, ok := s.inflight[key]; ok {
			// Single flight: block on the in-progress compute.
			s.mu.Unlock()
			start := time.Now()
			<-g.done
			obs.Emit(s.sink, obs.Event{Kind: obs.KindStoreWait, Name: key, Elapsed: time.Since(start)})
			if errors.Is(g.err, context.Canceled) || errors.Is(g.err, context.DeadlineExceeded) {
				continue
			}
			return g.val, g.err
		}
		s.mu.Unlock()
		if v, ok := s.backend.Get(key); ok {
			obs.Emit(s.sink, obs.Event{Kind: obs.KindStoreHit, Name: key})
			return v, nil
		}
		s.mu.Lock()
		if _, ok := s.inflight[key]; ok {
			// Lost the registration race to a concurrent Do for the same
			// key; loop back to wait on its flight.
			s.mu.Unlock()
			continue
		}
		f = &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()
		break
	}

	start := time.Now()
	var size int64
	f.val, size, f.err = compute()
	var evicted []string
	if f.err == nil {
		// Hand the artifact to the backend before waking waiters, so a
		// lookup sequenced after this Do observes it resident. A failed
		// compute is simply dropped: the error stays visible to everyone
		// already blocked on f.done, while later lookups recompute.
		evicted = s.backend.Put(key, f.val, size)
	}
	s.mu.Lock()
	if s.inflight[key] == f {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	close(f.done)
	for _, k := range evicted {
		obs.Emit(s.sink, obs.Event{Kind: obs.KindStoreEvict, Name: k})
	}
	obs.Emit(s.sink, obs.Event{Kind: obs.KindStoreMiss, Name: key, Elapsed: time.Since(start)})
	return f.val, f.err
}

// Memo is the typed access path to a Store: it computes (once) and
// returns the artifact under key as a T. A key reused with a different
// type is an error, not a panic.
func Memo[T any](s *Store, key string, compute func() (T, error)) (T, error) {
	var zero T
	v, err := s.Do(key, func() (any, error) { return compute() })
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("engine: artifact %q holds %T, requested as %T", key, v, zero)
	}
	return t, nil
}
