package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/obs"
)

// Options configure one engine run. The CLIs bind the engine flags onto
// it with RegisterFlags and pass it through unchanged.
type Options struct {
	// Jobs bounds how many tasks execute concurrently.
	// Zero or negative means GOMAXPROCS.
	Jobs int
	// Timeout is the wall-clock budget of each task (its dependencies
	// have their own budgets). Zero means no limit.
	Timeout time.Duration
	// KeepGoing keeps the run alive after a task fails: the failure is
	// recorded, dependents are skipped, independent tasks run to
	// completion, and the run returns the partial results alongside a
	// *DegradedError. False preserves fail-fast: the first failure
	// cancels everything in flight.
	KeepGoing bool
	// Sink receives structured run events (task start/finish/skip/
	// cancel, pool occupancy samples). Nil means no observation;
	// the sink must be safe for concurrent use.
	Sink obs.Sink
}

// RegisterFlags binds the three engine flags onto fs (pass
// flag.CommandLine for the global set): -jobs, -timeout and
// -keep-going. Each flag's default is o's value at registration, so a
// command that keeps going by default sets KeepGoing before
// registering.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Jobs, "jobs", o.Jobs, "worker budget: concurrent tasks and the kernel workers inside them (0 = GOMAXPROCS)")
	fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "per-task time limit (0 = none)")
	fs.BoolVar(&o.KeepGoing, "keep-going", o.KeepGoing, "record a failing task and finish the others, then exit non-zero; false cancels the run at the first failure")
}

// Result is one task's outcome.
type Result struct {
	// Name is the task's name.
	Name string
	// Value is whatever the run function returned.
	Value any
	// Err is the task's failure, or nil.
	Err error
	// Elapsed is the run function's wall-clock time.
	Elapsed time.Duration
}

// task is one unit the scheduler runs: a named run function and
// the tasks that must succeed before it starts.
type task struct {
	deps []*task
	run  func(ctx context.Context) (any, error)
	done chan struct{} // closed once res is final
	res  Result
}

// Run executes the requested experiments plus their transitive
// dependencies on a bounded worker pool. An experiment starts once all
// its dependencies succeeded; if a dependency fails, its dependents are
// skipped. By default the first failure cancels in-flight work and Run
// reports the root error labeled with its task name; with
// Options.KeepGoing, independent subgraphs complete and Run returns the
// partial results together with a *DegradedError summarizing what
// failed and what was skipped. Results come back for the requested
// names only, in request order, regardless of completion order, so
// parallel runs are drop-in replacements for serial ones.
func Run[E any](ctx context.Context, reg *Registry[E], names []string, env E, opts Options) ([]Result, error) {
	tasks, byName, err := reg.resolve(names, env)
	if err != nil {
		return nil, err
	}
	err = schedule(ctx, tasks, poolSize(opts.Jobs), opts)
	if _, degraded := err.(*DegradedError); err != nil && !degraded {
		return nil, err
	}
	out := make([]Result, len(names))
	for i, name := range names {
		out[i] = byName[name].res
	}
	return out, err
}

// Map runs fn once per label and returns the values in label order,
// regardless of completion order. Each label is one task of a Run
// without dependency edges, on min(opts.Jobs, len(labels)) workers, so
// timeouts, keep-going, events and failure classification are
// Run's: by default the first failure cancels the rest and comes back
// labeled; with Options.KeepGoing every item is attempted and Map
// returns the partial results (zero values for the failed items)
// together with a *DegradedError.
//
// The CLIs use Map to fan out per-file work (parsing logs, estimating
// Hurst parameters), labeling each item with its file path.
func Map[T any](ctx context.Context, labels []string, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if len(labels) == 0 {
		return nil, ctx.Err()
	}
	tasks := make([]*task, len(labels))
	for i, label := range labels {
		tasks[i] = &task{res: Result{Name: label}, run: func(ctx context.Context) (any, error) {
			return fn(ctx, i)
		}}
	}
	err := schedule(ctx, tasks, min(poolSize(opts.Jobs), len(labels)), opts)
	if _, degraded := err.(*DegradedError); err != nil && !degraded {
		return nil, err
	}
	out := make([]T, len(labels))
	for i, t := range tasks {
		if v, ok := t.res.Value.(T); ok {
			out[i] = v // a nil any (interface-typed T) keeps the zero value
		}
	}
	return out, err
}

// poolSize resolves a Jobs setting: zero or negative means GOMAXPROCS.
func poolSize(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// resolve expands names and their transitive dependencies into tasks
// bound to env, every dependency before its dependents; byName maps
// each resolved name to its task.
func (r *Registry[E]) resolve(names []string, env E) (tasks []*task, byName map[string]*task, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range names {
		if _, ok := r.specs[name]; !ok {
			return nil, nil, fmt.Errorf("engine: unknown experiment %q", name)
		}
	}
	if err := r.checkCycles(names); err != nil {
		return nil, nil, err
	}
	byName = map[string]*task{}
	var expand func(name string) (*task, error)
	expand = func(name string) (*task, error) {
		if t, ok := byName[name]; ok {
			return t, nil
		}
		s := r.specs[name]
		t := &task{res: Result{Name: name}, run: func(ctx context.Context) (any, error) {
			return s.run(ctx, env)
		}}
		byName[name] = t // placed before recursing; cycles were excluded above
		for _, d := range s.deps {
			if _, ok := r.specs[d]; !ok {
				return nil, fmt.Errorf("engine: experiment %q depends on unknown %q", name, d)
			}
			dt, err := expand(d)
			if err != nil {
				return nil, err
			}
			t.deps = append(t.deps, dt)
		}
		tasks = append(tasks, t)
		return t, nil
	}
	for _, name := range names {
		if _, err := expand(name); err != nil {
			return nil, nil, err
		}
	}
	return tasks, byName, nil
}

// schedule is the engine's one scheduling loop. It runs tasks — every
// dependency listed before its dependents — on at most workers
// concurrent slots: tasks without dependencies take slots in task
// order; a task with dependencies waits for them (and is skipped if
// one failed) and then takes a slot. A task runs once under the
// per-task timeout, and by default cancels the run on failure.
// schedule then classifies the failures deterministically in task
// order: genuine root failures, skipped dependents, and cancellation
// ripples from another task's failure. It returns nil, a
// *DegradedError (keep-going with failures), or the first root failure
// labeled with its task name; every task's res is final either way.
func schedule(ctx context.Context, tasks []*task, workers int, opts Options) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := make(chan struct{}, workers)
	sink := opts.Sink
	var occupancy atomic.Int64
	runStart := time.Now()
	obs.Emit(sink, obs.Event{Kind: obs.KindRunStart, Capacity: workers})

	for _, t := range tasks {
		t.done = make(chan struct{})
	}
	// acquire takes a worker slot for t, or records t as cancelled when
	// the run ends first.
	acquire := func(t *task) bool {
		select {
		case slots <- struct{}{}:
			return true
		case <-runCtx.Done():
			t.res.Err = runCtx.Err()
			obs.Emit(sink, obs.Event{Kind: obs.KindTaskCancel, Name: t.res.Name, Err: t.res.Err.Error()})
			return false
		}
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		// Taking independent tasks' slots here starts them in task order.
		independent := len(t.deps) == 0
		if independent && !acquire(t) {
			close(t.done)
			continue
		}
		wg.Add(1)
		go func(t *task) {
			defer wg.Done()
			defer close(t.done)
			name := t.res.Name
			var deps []string
			for _, d := range t.deps {
				<-d.done
				if d.res.Err != nil {
					t.res.Err = &skipDep{fmt.Errorf("engine: %s skipped: dependency %s failed: %w", name, d.res.Name, d.res.Err)}
					obs.Emit(sink, obs.Event{Kind: obs.KindTaskSkip, Name: name, Err: t.res.Err.Error(), Reason: obs.SkipReasonUpstreamFailed})
					return
				}
				deps = append(deps, d.res.Name)
			}
			if !independent && !acquire(t) {
				return
			}
			obs.Emit(sink, obs.Event{Kind: obs.KindPoolSample, InUse: int(occupancy.Add(1)), Capacity: workers})
			defer func() {
				obs.Emit(sink, obs.Event{Kind: obs.KindPoolSample, InUse: int(occupancy.Add(-1)), Capacity: workers})
				<-slots
			}()
			if err := runCtx.Err(); err != nil {
				t.res.Err = err
				obs.Emit(sink, obs.Event{Kind: obs.KindTaskCancel, Name: name, Err: err.Error()})
				return
			}
			tctx := runCtx
			if opts.Timeout > 0 {
				var tcancel context.CancelFunc
				tctx, tcancel = context.WithTimeout(runCtx, opts.Timeout)
				defer tcancel()
			}
			obs.Emit(sink, obs.Event{Kind: obs.KindTaskStart, Name: name, Deps: deps})
			start := time.Now()
			t.res.Value, t.res.Err = runOnce(tctx, name, t.run)
			t.res.Elapsed = time.Since(start)
			fin := obs.Event{Kind: obs.KindTaskFinish, Name: name, Elapsed: t.res.Elapsed}
			if t.res.Err != nil {
				fin.Err = t.res.Err.Error()
			}
			obs.Emit(sink, fin)
			if t.res.Err != nil && !opts.KeepGoing {
				cancel() // first failure stops the rest of the run
			}
		}(t)
	}
	wg.Wait()

	var firstErr, rootErr error
	var rootName string
	var deg DegradedError
	for _, t := range tasks {
		err := t.res.Err
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if isSkip(err) {
			deg.Skipped = append(deg.Skipped, t.res.Name)
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue // ripple from a sibling's failure, not a root cause
		}
		if rootErr == nil {
			rootErr, rootName = err, t.res.Name
		}
		deg.Failed = append(deg.Failed, t.res.Name)
		deg.Errs = append(deg.Errs, err)
	}

	if opts.KeepGoing && ctx.Err() == nil && len(deg.Failed) > 0 {
		obs.Emit(sink, obs.Event{Kind: obs.KindRunDegraded, Failed: len(deg.Failed), Skipped: len(deg.Skipped), Err: deg.summary()})
		obs.Emit(sink, obs.Event{Kind: obs.KindRunFinish, Elapsed: time.Since(runStart)})
		return &deg
	}
	obs.Emit(sink, obs.Event{Kind: obs.KindRunFinish, Elapsed: time.Since(runStart)})
	if rootErr != nil {
		return labelErr(rootName, rootErr)
	}
	return firstErr
}

// runOnce executes one task's run function, converting a panic into
// a *PanicError. A run function that swallowed its timeout or
// cancellation still must not report success.
func runOnce(ctx context.Context, name string, run func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &PanicError{Task: name, Value: r, Stack: debug.Stack()}
		}
	}()
	v, err = run(ctx)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// labelErr wraps a root failure with its task name so the aggregate
// error identifies which task failed. Errors that already carry the
// task label (panics, dependency skips) pass through untouched.
func labelErr(name string, err error) error {
	var pe *PanicError
	if errors.As(err, &pe) || isSkip(err) {
		return err
	}
	return fmt.Errorf("engine: %s: %w", name, err)
}

// skipDep marks results of experiments whose dependencies failed, so
// the aggregate error reports the root failure, not the ripple.
type skipDep struct{ inner error }

func (s *skipDep) Error() string { return s.inner.Error() }
func (s *skipDep) Unwrap() error { return s.inner }

func isSkip(err error) bool {
	var s *skipDep
	return errors.As(err, &s)
}
