package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coplot/internal/obs"
	"coplot/internal/store"
)

// memStore is a Store over a fresh memory tier capped at limit bytes
// (<=0 = unbounded), returned with the tier for residency checks.
func memStore(limit int64, sink obs.Sink) (*Store, *store.Memory) {
	m := store.NewMemory(limit)
	return NewStore(m, sink), m
}

func TestStoreComputesOnce(t *testing.T) {
	s, mem := memStore(0, nil)
	var calls atomic.Int64
	compute := func() (int, error) {
		calls.Add(1)
		return 42, nil
	}
	// Many concurrent readers of the same key: exactly one compute.
	const readers = 32
	var wg sync.WaitGroup
	errs := make([]error, readers)
	vals := make([]int, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = Memo(s, "answer", compute)
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("reader %d: %d, %v", i, vals[i], errs[i])
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if mem.Len() != 1 {
		t.Fatalf("Len = %d", mem.Len())
	}
}

func TestStoreEvictsErrors(t *testing.T) {
	// A failed compute must not poison the key: the next lookup
	// recomputes, and a success is then cached normally.
	s, _ := memStore(0, nil)
	sentinel := errors.New("boom")
	calls := 0
	_, err := Memo(s, "k", func() (int, error) { calls++; return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	v, err := Memo(s, "k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("lookup after error: v=%d err=%v", v, err)
	}
	v, err = Memo(s, "k", func() (int, error) { calls++; return 0, sentinel })
	if err != nil || v != 7 {
		t.Fatalf("success not cached after recovery: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestStoreDistinctKeys(t *testing.T) {
	s, _ := memStore(0, nil)
	a, _ := Memo(s, "a", func() (int, error) { return 1, nil })
	b, _ := Memo(s, "b", func() (int, error) { return 2, nil })
	if a != 1 || b != 2 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestMemoTypeMismatch(t *testing.T) {
	s, _ := memStore(0, nil)
	if _, err := Memo(s, "k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := Memo(s, "k", func() (string, error) { return "x", nil })
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
}

// countEvents is a sink counting events by kind, for eviction tests.
type countEvents struct {
	mu     sync.Mutex
	counts map[obs.Kind]int
	names  []string
}

func (c *countEvents) Event(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = map[obs.Kind]int{}
	}
	c.counts[e.Kind]++
	if e.Kind == obs.KindStoreEvict {
		c.names = append(c.names, e.Name)
	}
}

func (c *countEvents) count(k obs.Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

func TestStoreByteLimitEvictsLRU(t *testing.T) {
	sink := &countEvents{}
	s, mem := memStore(100, sink)
	put := func(key string) {
		t.Helper()
		if _, err := s.DoSized(key, func() (any, int64, error) { return key, 40, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if got := mem.Bytes(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}
	put("a") // hit: refreshes a's recency, so b is now the LRU victim
	put("c") // 120 bytes > 100: evicts b
	if got := mem.Bytes(); got != 80 {
		t.Fatalf("bytes after eviction = %d, want 80", got)
	}
	if sink.count(obs.KindStoreEvict) != 1 || sink.names[0] != "b" {
		t.Fatalf("evictions = %d %v, want 1 [b]", sink.count(obs.KindStoreEvict), sink.names)
	}
	// b was evicted, so it recomputes; reinserting it (40 bytes) in turn
	// evicts the then-LRU "a", leaving [b, c] resident.
	recomputed := false
	if _, err := s.DoSized("b", func() (any, int64, error) { recomputed = true; return "b", 40, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("evicted key did not recompute")
	}
	computedC := false
	if _, err := s.DoSized("c", func() (any, int64, error) { computedC = true; return "c", 40, nil }); err != nil {
		t.Fatal(err)
	}
	if computedC {
		t.Fatal("resident key recomputed")
	}
}

func TestStoreOversizedArtifactEvictsItself(t *testing.T) {
	s, mem := memStore(10, nil)
	if _, err := s.DoSized("huge", func() (any, int64, error) { return "x", 1000, nil }); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got != 0 {
		t.Fatalf("bytes = %d, want 0 (oversized artifact must not stay resident)", got)
	}
	again := false
	if _, err := s.DoSized("huge", func() (any, int64, error) { again = true; return "x", 1000, nil }); err != nil {
		t.Fatal(err)
	}
	if !again {
		t.Fatal("oversized artifact was cached despite exceeding the limit")
	}
}

func TestStoreUnsizedArtifactsExemptFromLimit(t *testing.T) {
	s, mem := memStore(1, nil)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := Memo(s, k, func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Len() != 3 {
		t.Fatalf("len = %d, want 3 (zero-sized artifacts never evict)", mem.Len())
	}
}

func TestStoreEvictionUnderConcurrency(t *testing.T) {
	s, mem := memStore(64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				v, err := s.DoSized(key, func() (any, int64, error) { return key, 16, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != key {
					t.Errorf("key %q holds %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := mem.Bytes(); got > 64 {
		t.Fatalf("bytes = %d, want <= 64", got)
	}
}

// waitOnFailedFlight has a second caller wait on a flight of "k" that
// fails with leaderErr, and returns the store and what the waiter got.
// The waiter's own compute returns "own". A run in which the waiter
// arrived after the flight ended proves nothing, so it is repeated
// until the waiter blocked on the flight.
func waitOnFailedFlight(t *testing.T, leaderErr error) (*Store, any, error) {
	t.Helper()
	for try := 0; try < 10; try++ {
		events := &countEvents{}
		s, _ := memStore(0, events)
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, err := s.Do("k", func() (any, error) {
				close(started)
				<-release
				return nil, leaderErr
			})
			leader <- err
		}()
		<-started
		var v any
		var err error
		waiter := make(chan struct{})
		go func() {
			defer close(waiter)
			v, err = s.Do("k", func() (any, error) { return "own", nil })
		}()
		time.Sleep(20 * time.Millisecond) // let the waiter block on the flight
		close(release)
		if got := <-leader; got != leaderErr {
			t.Fatalf("leader err = %v, want %v", got, leaderErr)
		}
		<-waiter
		if events.count(obs.KindStoreWait) > 0 {
			return s, v, err
		}
	}
	t.Fatal("the waiter never blocked on the leader's flight")
	return nil, nil, nil
}

// TestStoreWaiterDoesNotInheritContextError: a caller that waited on
// another caller's flight does not answer with that caller's
// cancellation or deadline. It computes under its own compute instead,
// and a later lookup hits the value it stored.
func TestStoreWaiterDoesNotInheritContextError(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		s, v, err := waitOnFailedFlight(t, fmt.Errorf("leader's client went away: %w", cause))
		if err != nil || v != "own" {
			t.Fatalf("%v: waiter = %v, %v; want its own value", cause, v, err)
		}
		v, err = s.Do("k", func() (any, error) { return nil, errors.New("recomputed") })
		if err != nil || v != "own" {
			t.Fatalf("%v: later lookup = %v, %v; want a hit on the waiter's value", cause, v, err)
		}
	}
}

// TestStoreWaiterSharesOtherErrors: any other error reaches the caller
// that waited on the flight, which does not compute.
func TestStoreWaiterSharesOtherErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, v, err := waitOnFailedFlight(t, boom); err != boom || v != nil {
		t.Fatalf("waiter = %v, %v; want the flight's %v", v, err, boom)
	}
}

// TestStoreWaitersSurviveEvictionMidCompute pins the single-flight /
// eviction interaction: when an artifact is evicted the instant it
// completes (here because it alone exceeds the byte limit, and because
// a writer floods the cache with competing keys), waiters already
// blocked on the in-flight compute must still receive the computed
// value — never nil — and the next lookup must recompute rather than
// hit. Run under -race.
func TestStoreWaitersSurviveEvictionMidCompute(t *testing.T) {
	s, _ := memStore(16, nil) // each 32-byte artifact self-evicts on insert

	// Background eviction pressure on unrelated keys.
	stop := make(chan struct{})
	var pressure sync.WaitGroup
	pressure.Add(1)
	go func() {
		defer pressure.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("filler%d", i%7)
			if _, err := s.DoSized(key, func() (any, int64, error) { return key, 8, nil }); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var computes atomic.Int32
	const rounds = 20
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("victim%d", round)
		compute := func() (any, int64, error) {
			computes.Add(1)
			time.Sleep(time.Millisecond) // widen the single-flight window
			return key, 32, nil
		}
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				v, err := s.DoSized(key, compute)
				if err != nil {
					t.Error(err)
					return
				}
				if v == nil {
					t.Errorf("waiter on %q received nil", key)
					return
				}
				if v.(string) != key {
					t.Errorf("waiter on %q received %v", key, v)
				}
			}()
		}
		close(gate)
		wg.Wait()
		// The artifact was evicted on insert; this lookup must recompute.
		v, err := s.DoSized(key, compute)
		if err != nil || v == nil || v.(string) != key {
			t.Fatalf("post-eviction lookup of %q = %v, %v", key, v, err)
		}
	}
	close(stop)
	pressure.Wait()
	if got := computes.Load(); got < 2*rounds {
		t.Fatalf("computes = %d, want >= %d (each round must recompute after eviction)", got, 2*rounds)
	}
}
