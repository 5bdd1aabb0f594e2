package engine

import (
	"fmt"
	"sort"
	"strings"
)

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
