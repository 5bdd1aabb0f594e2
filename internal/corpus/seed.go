package corpus

// Seeding: the paper's 15 observations — the ten production workloads
// of Table 1 and the five synthetic models of Figure 4 — generated
// from fixed seeds so every replica and every restart derives exactly
// the same entries with exactly the same content-addressed IDs. That
// identity is what makes the seeded corpus cluster-trivial: replicas
// never need to exchange seeds, because a union of their indexes
// deduplicates them by ID.

import (
	"bytes"

	"coplot/internal/machine"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/sites"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// DefaultSeedJobs is the generated log length per seed observation
// when the caller does not choose one. It is large enough for stable
// Table-1 statistics and small enough that seeding stays a startup
// blip.
const DefaultSeedJobs = 2000

// seedGenSeed is the fixed base seed every seed log is generated from.
// It matches the /v1/generate default, so a client can regenerate any
// model seed's exact log with generate?model=<name>&procs=<procs>&
// n=<jobs>&seed=1 — the match-smoke CI job uses that to build a query
// whose nearest neighbor is known in advance.
const seedGenSeed = 1

// SeedEntries generates the 15 built-in observations at the given log
// length (0 = DefaultSeedJobs): the ten Table-1 production sites, each
// on its own machine, then the five models on the machines their fits
// target. The result is a pure function of jobs.
func SeedEntries(jobs int) ([]*Entry, error) {
	if jobs <= 0 {
		jobs = DefaultSeedJobs
	}
	specs := sites.Table1Specs(jobs)
	logs, err := sites.GenerateAll(specs, seedGenSeed)
	if err != nil {
		return nil, err
	}
	var out []*Entry
	for _, spec := range specs {
		e, err := entryFromLog(spec.Name, logs[spec.Name], spec.Machine)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	for _, spec := range models.Paper {
		log := spec.New(spec.Fit.Procs).Generate(rng.New(seedGenSeed), jobs)
		e, err := entryFromLog(spec.Name, log, spec.Fit)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// entryFromLog characterizes one generated log as a seed entry,
// derived from the serialized log exactly as an upload's would be: the
// ID hashes the SWF bytes, and the variables are computed from their
// parse — serialization quantizes fractional fields, so a client that
// regenerates and uploads the same log must land on the same vector.
func entryFromLog(name string, log *swf.Log, m machine.Machine) (*Entry, error) {
	var buf bytes.Buffer
	if err := swf.Write(&buf, log); err != nil {
		return nil, err
	}
	parsed, err := swf.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	v, err := workload.Compute(name, parsed, m)
	if err != nil {
		return nil, err
	}
	return FromVariables(EntryID(name, m, buf.Bytes()), SourceSeed, len(parsed.Jobs), v), nil
}

// Seed generates the built-in observations (SeedEntries) and admits
// them through the local backend. It reports how many entries were
// newly admitted — zero when a durable store already holds them all.
func (c *Corpus) Seed(jobs int) (int, error) {
	entries, err := SeedEntries(jobs)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, e := range entries {
		if _, ok := c.Get(e.ID); ok {
			continue
		}
		if err := c.admitSeed(e); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}
