package engine_test

// Fault-tolerance suite: drives the runner and Map through every
// panic/hang/degradation path with the deterministic faultinject
// harness, and pins the regression that a sibling's cancellation ripple
// must never mask the genuine first error.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"coplot/internal/engine"
	"coplot/internal/faultinject"
	"coplot/internal/obs"
)

// recorder is a Sink capturing events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Event(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// count tallies recorded events of one kind, optionally for one name.
func (r *recorder) count(kind obs.Kind, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == kind && (name == "" || e.Name == name) {
			n++
		}
	}
	return n
}

// find returns the first recorded event of kind for name.
func (r *recorder) find(kind obs.Kind, name string) (obs.Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Kind == kind && e.Name == name {
			return e, true
		}
	}
	return obs.Event{}, false
}

// items names n Map items "item-0" .. "item-(n-1)".
func items(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("item-%d", i)
	}
	return labels
}

// newReg builds a registry of trivial named tasks returning their name.
func newReg(names map[string][]string) *engine.Registry[int] {
	reg := engine.NewRegistry[int]()
	for name := range names {
		n := name
		reg.MustRegister(n, names[n], func(ctx context.Context, env int) (any, error) {
			return n, nil
		})
	}
	return reg
}

func TestRunRecoversPanicAsTypedError(t *testing.T) {
	sched := faultinject.New(faultinject.Fault{Target: "a", Kind: faultinject.KindPanic})
	reg := faultinject.Wrap(sched, newReg(map[string][]string{"a": nil}))
	_, err := engine.Run(context.Background(), reg, []string{"a"}, 0, engine.Options{})
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Task != "a" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
}

// TestRunHangBecomesTimeoutFailure: a task that hangs until its
// context ends fails with the per-task deadline, labeled with its
// name, and its independent sibling still completes under keep-going.
func TestRunHangBecomesTimeoutFailure(t *testing.T) {
	sched := faultinject.New(faultinject.Fault{Target: "a", Kind: faultinject.KindHang})
	reg := faultinject.Wrap(sched, newReg(map[string][]string{"a": nil, "b": nil}))
	res, err := engine.Run(context.Background(), reg, []string{"a", "b"}, 0, engine.Options{
		Jobs: 2, Timeout: 30 * time.Millisecond, KeepGoing: true,
	})
	var deg *engine.DegradedError
	if !errors.As(err, &deg) || strings.Join(deg.Failed, ",") != "a" {
		t.Fatalf("err = %v, want a degraded run failing a", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang did not become a timeout failure: %v", err)
	}
	if res[1].Err != nil || res[1].Value != "b" {
		t.Fatalf("sibling b = %+v, want its value", res[1])
	}
}

func TestRunKeepGoingDegrades(t *testing.T) {
	// a fails; b depends on a (skipped); c is independent
	// and must still complete.
	sched := faultinject.New(faultinject.Fault{Target: "a"})
	reg := faultinject.Wrap(sched, newReg(map[string][]string{"a": nil, "b": {"a"}, "c": nil}))
	rec := &recorder{}
	metrics := obs.NewMetrics()
	res, err := engine.Run(context.Background(), reg, []string{"a", "b", "c"}, 0, engine.Options{
		KeepGoing: true,
		Sink:      obs.Multi(rec, metrics),
	})
	var deg *engine.DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("err = %T %v, want *DegradedError", err, err)
	}
	if len(deg.Failed) != 1 || deg.Failed[0] != "a" {
		t.Fatalf("failed = %v", deg.Failed)
	}
	if len(deg.Skipped) != 1 || deg.Skipped[0] != "b" {
		t.Fatalf("skipped = %v", deg.Skipped)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("degraded error lost the cause chain: %v", err)
	}
	if res == nil || res[2].Value != "c" || res[2].Err != nil {
		t.Fatalf("independent task did not complete: %+v", res)
	}
	if e, ok := rec.find(obs.KindTaskSkip, "b"); !ok || e.Reason != obs.SkipReasonUpstreamFailed {
		t.Fatalf("skip event = %+v", e)
	}
	if got := rec.count(obs.KindRunDegraded, ""); got != 1 {
		t.Fatalf("run.degraded events = %d", got)
	}
	m := metrics.Manifest(obs.RunInfo{Tool: "test"})
	f := m.Failures
	if f == nil || !f.Degraded {
		t.Fatalf("manifest failures = %+v", f)
	}
	if len(f.Failed) != 1 || f.Failed[0] != "a" || len(f.Skipped) != 1 || f.Skipped[0] != "b" {
		t.Fatalf("manifest failure lists = %+v", f)
	}
	for _, task := range m.Tasks {
		if task.Name == "b" && task.Reason != obs.SkipReasonUpstreamFailed {
			t.Fatalf("task b reason = %q", task.Reason)
		}
	}
}

func TestRunFailFastStillCancels(t *testing.T) {
	// Without KeepGoing the first failure cancels the independent slow
	// sibling.
	boom := errors.New("boom")
	started := make(chan struct{})
	reg := engine.NewRegistry[int]()
	reg.MustRegister("fail", nil, func(ctx context.Context, env int) (any, error) {
		<-started
		return nil, boom
	})
	reg.MustRegister("slow", nil, func(ctx context.Context, env int) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, err := engine.Run(context.Background(), reg, []string{"fail", "slow"}, 0, engine.Options{Jobs: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunSiblingFailureKeepsTaskLabel(t *testing.T) {
	// Regression: a slow task that swallows its cancellation used to be
	// able to win error selection with a bare context.Canceled; the
	// genuine failure must surface, labeled with its task name.
	boom := errors.New("boom")
	started := make(chan struct{})
	reg := engine.NewRegistry[int]()
	// "a-slow" sorts/registers first and swallows the cancellation.
	reg.MustRegister("a-slow", nil, func(ctx context.Context, env int) (any, error) {
		close(started)
		<-ctx.Done()
		return "late", nil // swallows cancel: runner must not call this success
	})
	reg.MustRegister("z-fail", nil, func(ctx context.Context, env int) (any, error) {
		<-started
		return nil, boom
	})
	_, err := engine.Run(context.Background(), reg, []string{"a-slow", "z-fail"}, 0, engine.Options{Jobs: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "z-fail") {
		t.Fatalf("error lost its task label: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation ripple masked the root error: %v", err)
	}
}

func TestMapSiblingFailureKeepsItemLabel(t *testing.T) {
	// Regression (the ISSUE's satellite fix): item 3 fails while items
	// 0-2 are slow successes that observe the cancellation; Map used to
	// report bare context.Canceled from the lowest cancelled index.
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := engine.Map(context.Background(), items(4), engine.Options{
		Jobs: 4,
	}, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			<-started
			return 0, boom
		}
		if i == 0 {
			close(started)
		}
		<-ctx.Done()
		return i, nil // swallows cancel
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "item-3") {
		t.Fatalf("error lost its item label: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation ripple masked the root error: %v", err)
	}
}

func TestMapKeepGoing(t *testing.T) {
	sched := faultinject.New(faultinject.Fault{Target: "item-2"})
	out, err := engine.Map(context.Background(), items(4), engine.Options{
		Jobs:      2,
		KeepGoing: true,
	}, func(ctx context.Context, i int) (int, error) {
		if err := sched.Fire(ctx, fmt.Sprintf("item-%d", i)); err != nil {
			return 0, err
		}
		return i * 10, nil
	})
	var deg *engine.DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("err = %T %v, want *DegradedError", err, err)
	}
	if len(deg.Failed) != 1 || deg.Failed[0] != "item-2" {
		t.Fatalf("failed = %v", deg.Failed)
	}
	// item-2 failed; the rest completed despite the failure.
	want := []int{0, 10, 0, 30}
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

// TestMapMatchesEdgeFreeRun runs one fault schedule through a Run of
// tasks without dependency edges and through Map: both go through the
// one scheduler, so they report the same DegradedError (keep-going) or
// the same labeled root error (fail-fast).
func TestMapMatchesEdgeFreeRun(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	faults := []faultinject.Fault{
		{Target: "c"},
		{Target: "e", Kind: faultinject.KindPanic},
	}
	tasks := map[string][]string{}
	for _, l := range labels {
		tasks[l] = nil
	}
	both := func(opts engine.Options) (run []engine.Result, runErr error, mapped []any, mapErr error) {
		reg := faultinject.Wrap(faultinject.New(faults...), newReg(tasks))
		run, runErr = engine.Run(context.Background(), reg, labels, 0, opts)
		sched := faultinject.New(faults...)
		mapped, mapErr = engine.Map(context.Background(), labels, opts, func(ctx context.Context, i int) (any, error) {
			if err := sched.Fire(ctx, labels[i]); err != nil {
				return nil, err
			}
			return labels[i], nil
		})
		return run, runErr, mapped, mapErr
	}

	opts := engine.Options{Jobs: 2, KeepGoing: true}
	run, runErr, mapped, mapErr := both(opts)
	var runDeg, mapDeg *engine.DegradedError
	if !errors.As(runErr, &runDeg) || !errors.As(mapErr, &mapDeg) {
		t.Fatalf("errors = %v / %v, want two *DegradedError", runErr, mapErr)
	}
	if got, want := strings.Join(mapDeg.Failed, ","), "c,e"; got != want || strings.Join(runDeg.Failed, ",") != want {
		t.Fatalf("failed: run %v, map %v, want %s", runDeg.Failed, mapDeg.Failed, want)
	}
	if runDeg.Error() != mapDeg.Error() || len(runDeg.Skipped)+len(mapDeg.Skipped) != 0 {
		t.Fatalf("degraded errors differ:\nrun %v\nmap %v", runDeg, mapDeg)
	}
	for i := range runDeg.Errs {
		if runDeg.Errs[i].Error() != mapDeg.Errs[i].Error() {
			t.Fatalf("failure %d differs: run %v, map %v", i, runDeg.Errs[i], mapDeg.Errs[i])
		}
	}
	var pe *engine.PanicError
	if !errors.As(mapDeg.Errs[1], &pe) || pe.Task != "e" {
		t.Fatalf("panic not contained as e's task error: %v", mapDeg.Errs[1])
	}
	for i, r := range run {
		if r.Value != mapped[i] {
			t.Fatalf("value %d: run %v, map %v", i, r.Value, mapped[i])
		}
	}

	// Fail-fast on one worker: the same root error, labeled the same.
	opts = engine.Options{Jobs: 1}
	faults = faults[:1]
	_, runErr, _, mapErr = both(opts)
	if !errors.Is(runErr, faultinject.ErrInjected) || runErr.Error() != mapErr.Error() {
		t.Fatalf("fail-fast errors differ: run %v, map %v", runErr, mapErr)
	}
	if !strings.Contains(mapErr.Error(), "engine: c:") {
		t.Fatalf("root error lost its label: %v", mapErr)
	}
}

func TestWrappedPreservesRegistry(t *testing.T) {
	reg := newReg(map[string][]string{"a": nil, "b": {"a"}})
	wrapped := reg.Wrapped(nil)
	if got, want := strings.Join(wrapped.Names(), ","), strings.Join(reg.Names(), ","); got != want {
		t.Fatalf("names = %q, want %q", got, want)
	}
	deps, err := wrapped.Deps("b")
	if err != nil || len(deps) != 1 || deps[0] != "a" {
		t.Fatalf("deps = %v, %v", deps, err)
	}
	if err := wrapped.Validate(); err != nil {
		t.Fatalf("wrapped registry invalid: %v", err)
	}
}
