// Package service is the serving layer of the toolkit: a long-running
// HTTP/JSON front end (cmd/coplotd) over the same analysis code every
// CLI uses. The package has two halves:
//
//   - shared input handling and report rendering (this file and
//     render.go), factored out of the CLIs so a service response is
//     byte-identical to the corresponding CLI output by construction —
//     both call the same function;
//   - the Service itself (service.go, handlers.go): deterministic,
//     cacheable endpoints keyed by a content hash of (input bytes,
//     options, seed), backed by the engine's single-flight memoizing
//     store with an LRU byte cap, one shared par.Budget across
//     in-flight requests, semaphore backpressure (429 + Retry-After),
//     per-request deadlines, and
//     graceful drain on shutdown.
package service

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"coplot/internal/core"
	"coplot/internal/machine"
	"coplot/internal/models"
	"coplot/internal/workload"
)

// SWFDatasetVars are the log-derived Table-1 variables an SWF analysis
// maps (machine-configuration variables are uniform across one
// request's inputs and excluded). The canonical list lives in the
// workload package (workload.DatasetVars) so the streaming layer can
// share it; this alias keeps the serving layer's public name.
var SWFDatasetVars = workload.DatasetVars

// ParseCSVDataset reads a CSV data matrix: the first row holds
// variable names (first cell ignored), each following row an
// observation name and its values. name labels errors (a file path for
// the CLI, "body" for an upload).
func ParseCSVDataset(name string, r io.Reader) (*core.Dataset, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 4 || len(rows[0]) < 2 {
		return nil, fmt.Errorf("%s: need a header row and at least 3 observations", name)
	}
	ds := &core.Dataset{Variables: rows[0][1:]}
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("%s: ragged row %q", name, row[0])
		}
		ds.Observations = append(ds.Observations, row[0])
		vals := make([]float64, len(row)-1)
		for j, cell := range row[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %q column %d: %v", name, row[0], j+2, err)
			}
			vals[j] = v
		}
		ds.X = append(ds.X, vals)
	}
	return ds, nil
}

// DatasetFromVariables assembles the Co-plot dataset of an SWF
// analysis from characterized workload rows, restricted to
// SWFDatasetVars.
func DatasetFromVariables(rows []workload.Variables) (*core.Dataset, error) {
	tab, err := workload.BuildTable(rows, SWFDatasetVars)
	if err != nil {
		return nil, err
	}
	return &core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data}, nil
}

// ParseMachine builds a machine description from the wire names every
// entry point shares: scheduler "nqs", "easy" or "gang"; allocator
// "pow2", "limited" or "unlimited". The machine must pass
// machine.Validate (at least one processor).
func ParseMachine(name string, procs int, sched, alloc string) (machine.Machine, error) {
	m := machine.Machine{Name: name, Procs: procs}
	switch sched {
	case "nqs":
		m.Scheduler = machine.SchedulerNQS
	case "easy":
		m.Scheduler = machine.SchedulerEASY
	case "gang":
		m.Scheduler = machine.SchedulerGang
	default:
		return machine.Machine{}, fmt.Errorf("unknown scheduler %q", sched)
	}
	switch alloc {
	case "pow2":
		m.Allocator = machine.AllocatorPow2
	case "limited":
		m.Allocator = machine.AllocatorLimited
	case "unlimited":
		m.Allocator = machine.AllocatorUnlimited
	default:
		return machine.Machine{}, fmt.Errorf("unknown allocator %q", alloc)
	}
	if err := m.Validate(); err != nil {
		return machine.Machine{}, err
	}
	return m, nil
}

// ModelByName resolves a synthetic model's wire name — feitelson96,
// feitelson97, downey, jann, lublin, session, optionally prefixed
// "ss-" for the section-9 self-similarity injection — for a machine of
// procs processors (at least one). cmd/wgen and the /v1/generate
// handler share it.
func ModelByName(name string, procs int) (models.Model, error) {
	if procs < 1 {
		return nil, fmt.Errorf("model %q: non-positive processor count %d", name, procs)
	}
	base := strings.ToLower(name)
	selfSim := strings.HasPrefix(base, "ss-")
	spec, ok := models.Lookup(strings.TrimPrefix(base, "ss-"))
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	gen := spec.New(procs)
	if selfSim {
		gen = models.NewSelfSimilar(gen, 0.85)
	}
	return gen, nil
}
