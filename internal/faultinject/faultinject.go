// Package faultinject is a deterministic fault-injection harness for
// the experiment engine: a Schedule maps target names (registered
// experiments) to faults — error, hang-until-cancelled, or panic — and
// Wrap splices the schedule around the registered task functions.
// Each experiment runs once per run, so a scheduled fault fires on
// every invocation of its target, and a test run with a given schedule
// exercises exactly the same failures every time: the panic, timeout
// and degradation paths are testable byte-for-byte.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"coplot/internal/engine"
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
}

// Schedule is a set of scheduled faults, fixed at construction and
// safe for concurrent use. The zero value (and a nil *Schedule)
// injects nothing.
type Schedule struct {
	faults map[string]Kind
}

// New builds a schedule from the given faults. Later faults for the
// same target replace earlier ones.
func New(faults ...Fault) *Schedule {
	s := &Schedule{faults: map[string]Kind{}}
	for _, f := range faults {
		if f.Kind == "" {
			f.Kind = KindError
		}
		s.faults[f.Target] = f.Kind
	}
	return s
}

// Parse builds a schedule from a CLI spec: a comma-separated list of
// `target=error|panic|hang` entries, e.g. "fig1=error,table3=panic".
// A target alone schedules an error, so "fig1" injects an error on
// fig1.
func Parse(spec string) (*Schedule, error) {
	var faults []Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		target, kind, hasKind := strings.Cut(entry, "=")
		f := Fault{Target: strings.TrimSpace(target), Kind: KindError}
		if f.Target == "" {
			return nil, fmt.Errorf("faultinject: empty target in %q", entry)
		}
		if hasKind {
			switch Kind(kind) {
			case KindError, KindPanic, KindHang:
				f.Kind = Kind(kind)
			default:
				return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q (want error, panic, or hang)", kind, entry)
			}
		}
		faults = append(faults, f)
	}
	return New(faults...), nil
}

// Enabled reports whether the schedule holds any faults.
func (s *Schedule) Enabled() bool {
	return s != nil && len(s.faults) > 0
}

// Fire applies target's scheduled fault, if any: KindError returns an
// injected error, KindHang blocks until ctx is cancelled and returns
// the context error, and KindPanic panics. A nil schedule or an
// unscheduled target return nil immediately.
func (s *Schedule) Fire(ctx context.Context, target string) error {
	if s == nil {
		return nil
	}
	kind, ok := s.faults[target]
	if !ok {
		return nil
	}
	switch kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic in %s", target))
	case KindHang:
		<-ctx.Done()
		return fmt.Errorf("faultinject: hang in %s: %w", target, ctx.Err())
	default:
		return fmt.Errorf("faultinject: error in %s: %w", target, ErrInjected)
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
