package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"coplot/internal/obs"
	"coplot/internal/rng"
)

// RetryPolicy controls how a failed task attempt is retried. The zero
// value performs a single attempt (no retries). Backoff delays are
// exponential with seeded-deterministic jitter: the delay before retry
// k of task t is a pure function of (Seed, t, k), so two runs with the
// same policy wait identically — the delays are still excluded from
// the manifest's determinism contract because they are wall-clock, but
// the retry *schedule* itself never depends on scheduling races.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task, including
	// the first. Values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; each
	// further retry doubles it, up to maxBackoff. Zero defaults to
	// 10ms.
	BaseBackoff time.Duration
	// Seed drives the deterministic jitter stream (rng.Derive keyed by
	// task name and attempt).
	Seed uint64
	// Sleep waits for the backoff delay; tests substitute an instant
	// clock. Nil sleeps on a timer, aborting early when ctx ends.
	Sleep func(ctx context.Context, d time.Duration) error
}

// withDefaults fills the zero fields of p.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// maxBackoff caps the exponential growth of the retry delay.
const maxBackoff = 2 * time.Second

// Backoff returns the delay before retrying task after its failed
// attempt (1-based): BaseBackoff·2^(attempt-1), capped at maxBackoff,
// scaled by a deterministic equal-jitter factor in [0.5, 1.0) derived
// from (Seed, task, attempt).
func (p RetryPolicy) Backoff(task string, attempt int) time.Duration {
	p = p.withDefaults()
	d := p.BaseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	u := rng.New(rng.Derive(p.Seed, fmt.Sprintf("backoff:%s#%d", task, attempt))).Float64()
	return time.Duration((0.5 + 0.5*u) * float64(d))
}

// sleepCtx blocks for d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable is the retry classification: cancellations are never
// retried (the run is shutting down), explicitly permanent errors
// (Permanent) and recovered panics (PanicError) are not retried, and
// everything else — including a per-attempt deadline — is presumed
// transient.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		return false
	}
	var pe *PanicError
	return !errors.As(err, &pe)
}

// Permanent marks err as not worth retrying:
// the failure is deterministic (bad input, impossible configuration),
// so further attempts would only repeat it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// permanentError wraps deterministic failures excluded from retry.
type permanentError struct{ inner error }

// Error implements error.
func (p *permanentError) Error() string { return p.inner.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (p *permanentError) Unwrap() error { return p.inner }

// PanicError is the typed task error a recovered experiment panic is
// converted into: the run function panicked instead of returning, and
// the engine turned that into a failure of the one task rather than a
// crash of the whole process.
type PanicError struct {
	// Task names the task whose run function panicked.
	Task string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: task %s panicked: %v", p.Task, p.Value)
}

// DegradedError is the aggregate error of a keep-going run that
// completed with failures: the independent parts of the DAG ran to
// completion, the listed tasks failed, and their dependents were
// skipped. Callers inspect it with errors.As to distinguish a degraded
// run (partial results available) from a total failure.
type DegradedError struct {
	// Failed lists the tasks whose run function failed, in dependency
	// (topological) order.
	Failed []string
	// Skipped lists the dependents abandoned because a task in Failed
	// sits upstream of them, in dependency order.
	Skipped []string
	// Errs holds the failures matching Failed, index for index.
	Errs []error
}

// Error implements error with a one-line failure summary.
func (d *DegradedError) Error() string {
	msg := fmt.Sprintf("engine: %d task(s) failed, %d dependent(s) skipped", len(d.Failed), len(d.Skipped))
	if len(d.Failed) > 0 {
		msg += ": " + strings.Join(d.Failed, ", ")
	}
	if len(d.Errs) > 0 {
		msg += fmt.Sprintf(" (first: %v)", d.Errs[0])
	}
	return msg
}

// Unwrap exposes the individual task failures to errors.Is/As.
func (d *DegradedError) Unwrap() []error { return d.Errs }

// summary renders the deterministic failure list for the run.degraded
// event: sorted names, independent of completion order.
func (d *DegradedError) summary() string {
	failed := append([]string(nil), d.Failed...)
	sort.Strings(failed)
	return "failed: " + strings.Join(failed, ", ")
}

// Do runs one anonymous task under the engine's attempt machinery —
// panic protection (*PanicError), the retry policy's deterministic
// backoff, and an optional per-attempt timeout — without a registry or
// scheduler. It is the single-task form of the scheduler's attempt
// loop, built for callers like the serving layer that need the
// engine's failure semantics around an ad-hoc computation:
// task.retry/task.giveup events flow into sink exactly as they would
// for a registered experiment.
func Do(ctx context.Context, name string, pol RetryPolicy, attemptTimeout time.Duration, sink obs.Sink, fn func(context.Context) (any, error)) (any, error) {
	return runAttempts(ctx, name, pol, attemptTimeout, sink, fn)
}

// protect runs fn, converting a panic into a *PanicError for task.
func protect(task string, fn func(context.Context) (any, error), ctx context.Context) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Task: task, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}
