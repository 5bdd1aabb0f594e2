// Package faultinject is a deterministic fault-injection harness for
// the experiment engine: a Schedule maps target names (registered
// experiments) to faults — error-N-times, hang-until-cancelled, panic,
// or seeded probabilistic errors — and Wrap splices the schedule around
// the registered task functions. Because every fault fires on a fixed
// invocation count (or a seeded per-invocation coin flip), a test run
// with a given schedule exercises exactly the same failure sequence
// every time, so retry, give-up and degradation paths are testable
// byte-for-byte.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"coplot/internal/engine"
	"coplot/internal/rng"
)

// ErrInjected is the sentinel every injected error wraps; tests and
// callers use errors.Is(err, ErrInjected) to tell injected faults from
// organic failures.
var ErrInjected = errors.New("injected fault")

// Kind names a fault behavior.
type Kind string

// Fault kinds understood by the schedule.
const (
	// KindError makes the target return an injected error.
	KindError Kind = "error"
	// KindPanic makes the target panic with an injected value.
	KindPanic Kind = "panic"
	// KindHang makes the target block until its context is cancelled,
	// then return the context error (exercises timeout paths).
	KindHang Kind = "hang"
)

// Fault is one scheduled fault.
type Fault struct {
	// Target is the name the fault fires on: an experiment name for
	// Wrap, or any name a caller passes to Fire.
	Target string
	// Kind selects the behavior (KindError when empty).
	Kind Kind
	// Times is how many invocations of Target the fault affects before
	// it burns out and the target behaves normally (<=0 means 1).
	// Ignored when Rate is set.
	Times int
	// Rate, when positive, makes the fault probabilistic instead of
	// counted: each invocation fails independently with probability
	// Rate, decided by a deterministic coin derived from (Seed, Target,
	// invocation number) — the same schedule always injects the same
	// invocations.
	Rate float64
	// Seed drives the Rate coin flips.
	Seed uint64
}

// Schedule is a thread-safe set of scheduled faults with per-target
// invocation counters. The zero value (and a nil *Schedule) injects
// nothing.
type Schedule struct {
	mu     sync.Mutex
	faults map[string]*faultState
}

type faultState struct {
	fault Fault
	calls int // invocations of the target seen so far
	fired int // invocations that were injected
}

// New builds a schedule from the given faults. Later faults for the
// same target replace earlier ones.
func New(faults ...Fault) *Schedule {
	s := &Schedule{faults: map[string]*faultState{}}
	for _, f := range faults {
		if f.Kind == "" {
			f.Kind = KindError
		}
		if f.Times <= 0 {
			f.Times = 1
		}
		s.faults[f.Target] = &faultState{fault: f}
	}
	return s
}

// Parse builds a schedule from a CLI spec: a comma-separated list of
// `target=kind[:times]` entries, e.g. "fig1=error:2,table3=panic".
// Kind defaults to error and times to 1, so "fig1" alone schedules one
// injected error on fig1.
func Parse(spec string) (*Schedule, error) {
	var faults []Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f := Fault{Kind: KindError, Times: 1}
		target, rest, hasKind := strings.Cut(entry, "=")
		f.Target = strings.TrimSpace(target)
		if f.Target == "" {
			return nil, fmt.Errorf("faultinject: empty target in %q", entry)
		}
		if hasKind {
			kind, times, hasTimes := strings.Cut(rest, ":")
			switch Kind(kind) {
			case KindError, KindPanic, KindHang:
				f.Kind = Kind(kind)
			default:
				return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q (want error, panic, or hang)", kind, entry)
			}
			if hasTimes {
				n, err := strconv.Atoi(times)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: bad fault count %q in %q", times, entry)
				}
				f.Times = n
			}
		}
		faults = append(faults, f)
	}
	return New(faults...), nil
}

// Enabled reports whether the schedule holds any faults.
func (s *Schedule) Enabled() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.faults) > 0
}

// Count reports how many faults have fired on target so far.
func (s *Schedule) Count(target string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.faults[target]; ok {
		return st.fired
	}
	return 0
}

// Fire records one invocation of target and applies its scheduled
// fault, if any remains: KindError returns an injected error, KindHang
// blocks until ctx is cancelled and returns the context error, and
// KindPanic panics. A nil schedule, an unscheduled target, or a
// burned-out fault return nil immediately.
func (s *Schedule) Fire(ctx context.Context, target string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	st, ok := s.faults[target]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	st.calls++
	inject := false
	if st.fault.Rate > 0 {
		coin := rng.New(rng.Derive(st.fault.Seed, fmt.Sprintf("fault:%s#%d", target, st.calls))).Float64()
		inject = coin < st.fault.Rate
	} else {
		inject = st.fired < st.fault.Times
	}
	if inject {
		st.fired++
	}
	kind, n := st.fault.Kind, st.fired
	s.mu.Unlock()
	if !inject {
		return nil
	}
	switch kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic #%d in %s", n, target))
	case KindHang:
		<-ctx.Done()
		return fmt.Errorf("faultinject: hang in %s: %w", target, ctx.Err())
	default:
		return fmt.Errorf("faultinject: error #%d in %s: %w", n, target, ErrInjected)
	}
}

// Wrap returns a copy of reg whose run functions consult the schedule
// before executing: a scheduled fault on an experiment's name fires in
// place of (error, panic) or before (hang) the real run function.
func Wrap[E any](s *Schedule, reg *engine.Registry[E]) *engine.Registry[E] {
	if !s.Enabled() {
		return reg
	}
	return reg.Wrapped(func(name string, run engine.RunFunc[E]) engine.RunFunc[E] {
		return func(ctx context.Context, env E) (any, error) {
			if err := s.Fire(ctx, name); err != nil {
				return nil, err
			}
			return run(ctx, env)
		}
	})
}
