// Package models implements the five synthetic workload models the paper
// evaluates (section 7): Feitelson '96, Feitelson '97, Downey, Jann, and
// Lublin. Each model is coded from its published description; where the
// original parameter tables are not reproduced in the sources available
// to us, plausible values fitted to the same target logs are used and
// marked as approximations.
//
// All five are "pure" models in the paper's sense: they produce only
// inter-arrival times, runtimes and degrees of parallelism. Jobs are
// emitted with zero wait, matching the paper's treatment ("we assume they
// run immediately").
package models

import (
	"fmt"
	"strings"

	"coplot/internal/machine"
	"coplot/internal/rng"
	"coplot/internal/swf"
)

// Model generates synthetic parallel workloads.
type Model interface {
	// Name identifies the model in tables and figures.
	Name() string
	// Generate emits n jobs using the supplied random source.
	Generate(r *rng.Source, n int) *swf.Log
}

// Spec is one row of the model table.
type Spec struct {
	// Name is the model's name in tables and figures (its Model.Name);
	// the lower-case form is its wire name for /v1/generate and wgen.
	Name string
	// New builds the model for a machine of maxProcs processors.
	New func(maxProcs int) Model
	// Fit is the machine the model's published fit targets, the one
	// the paper places it against; zero for models outside Figure 4.
	Fit machine.Machine
}

// Table is the model table: the paper's five models in Figure 4 order,
// then the session extension. The Feitelson models and Downey fit the
// earlier, smaller systems (the NASA 128-node iPSC and the SDSC
// Paragon), Jann the 512-node CTC SP2, and Lublin a mid-size system.
var Table = []Spec{
	{"Feitelson96", func(p int) Model { return NewFeitelson96(p) }, machine.NASA},
	{"Feitelson97", func(p int) Model { return NewFeitelson97(p) }, machine.NASA},
	{"Downey", func(p int) Model { return NewDowney(p) }, machine.SDSC},
	{"Jann", func(p int) Model { return NewJann(p) }, machine.CTC},
	{"Lublin", func(p int) Model { return NewLublin(p) }, machine.LLNL},
	{"Session", func(p int) Model { return NewSession(p) }, machine.Machine{}},
}

// Paper is the paper's five models in Figure 4 order: Table's first
// five rows.
var Paper = Table[:5]

// Lookup returns the Table row whose name matches name, ignoring case.
func Lookup(name string) (Spec, bool) {
	for _, s := range Table {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Spec{}, false
}

// All returns the five models of the paper in its Figure 4 order, sized
// for a machine of maxProcs processors.
func All(maxProcs int) []Model {
	out := make([]Model, len(Paper))
	for i, s := range Paper {
		out[i] = s.New(maxProcs)
	}
	return out
}

// newLog starts a log with a standard header for model output.
func newLog(name string, maxProcs int) *swf.Log {
	return &swf.Log{Header: []string{
		fmt.Sprintf("Computer: synthetic (%s model)", name),
		fmt.Sprintf("Processors: %d", maxProcs),
		"Note: pure model output; jobs run immediately",
	}}
}

// emit appends a job with the model conventions: zero wait, CPU time
// equal to runtime, completion status set.
func emit(log *swf.Log, id int, submit, runtime float64, procs, user, executable int) {
	log.Jobs = append(log.Jobs, swf.Job{
		ID: id, Submit: submit, Wait: 0, Runtime: runtime, Procs: procs,
		CPUTime: runtime, Memory: -1, ReqProcs: procs, ReqTime: runtime,
		ReqMemory: -1, Status: swf.StatusCompleted, User: user, Group: 1,
		Executable: executable, Queue: swf.QueueBatch, Partition: -1,
		PrecedingID: -1, ThinkTime: -1,
	})
}
