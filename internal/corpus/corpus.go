// Package corpus implements the managed reference corpus behind the
// /v1/corpus and /v1/match endpoints: a set of analyzed workloads —
// the paper's 15 observations (ten production logs and five synthetic
// models) seeded at startup, extended by user uploads — each reduced
// to its Table-1 variable vector and persisted as a content-addressed
// artifact in the store layer, so the corpus survives restarts through
// the durable tier and flows through the cluster's consistent-hash
// ring like any other artifact.
//
// The corpus is the product surface of the paper's central idea:
// placing logs and models in one Co-plot map so an operator can say
// "this workload behaves like that one". Match joins an uploaded
// trace's variable vector with the corpus, computes the joint Co-plot
// embedding (landmark MDS past the configured threshold), brings the
// configuration to the dissimilarity gauge — non-metric MDS fixes
// shape, not scale, so map distances are only comparable after this
// canonicalization — and ranks the corpus by map distance to the
// query with an explicit tie-break, deterministically at any worker
// count.
package corpus

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/core"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/store"
	"coplot/internal/workload"
)

// Source values of a corpus entry.
const (
	// SourceSeed marks the paper's 15 built-in observations.
	SourceSeed = "seed"
	// SourceUpload marks entries admitted through POST /v1/corpus.
	SourceUpload = "upload"
)

// Entry is one corpus member: a workload reduced to its Table-1
// variable vector. The raw log is not retained — the corpus indexes
// what the Co-plot method actually consumes. The serving layer also
// stores nameless entries, outside the corpus, as the characterization
// of one uploaded log under a "swfvars-" key.
type Entry struct {
	// ID is the entry's content-addressed store key ("corpus-" plus 32
	// hex digits): a hash of the entry name, the machine description,
	// and the exact log bytes, so re-admitting the same workload is
	// idempotent on every replica.
	ID string
	// Name labels the entry in joint embeddings and neighbor lists.
	Name string
	// Source is SourceSeed or SourceUpload.
	Source string
	// Jobs is the job count of the characterized log.
	Jobs int
	// Vars holds the log-derived Table-1 variables in
	// workload.DatasetVars order; NaN marks a value the log could not
	// supply (substituted by the column mean at match time, exactly as
	// the batch pipeline does).
	Vars []float64
}

// EntryID derives an entry's content-addressed store key from its
// admission inputs. Every replica derives the same ID for the same
// upload, which is what lets the cluster treat corpus entries as
// ordinary ring artifacts.
func EntryID(name string, m machine.Machine, log []byte) string {
	opts := []string{
		"name=" + name,
		fmt.Sprintf("procs=%d", m.Procs),
		fmt.Sprintf("sched=%d", m.Scheduler),
		fmt.Sprintf("alloc=%d", m.Allocator),
	}
	return store.Key("corpus", opts, log)
}

// FromVariables builds an entry from a characterized workload row.
func FromVariables(id, source string, jobs int, v workload.Variables) *Entry {
	vars := make([]float64, len(workload.DatasetVars))
	for i, code := range workload.DatasetVars {
		vars[i] = v.Get(code)
	}
	return &Entry{ID: id, Name: v.Name, Source: source, Jobs: jobs, Vars: vars}
}

// Variables converts the entry back to a workload row named e.Name,
// for table assembly (NaN values flow through BuildTable's column-mean
// rule).
func (e *Entry) Variables() workload.Variables {
	vals := make(map[string]float64, len(e.Vars))
	for i, code := range workload.DatasetVars {
		vals[code] = e.Vars[i]
	}
	return workload.Variables{Name: e.Name, Values: vals}
}

// Stats is a snapshot of the corpus counters surfaced on /metrics.
type Stats struct {
	// Entries is the current local index size.
	Entries int
	// Seeded counts the built-in observations present.
	Seeded int
	// Admits counts entries accepted through Admit (seeds excluded).
	Admits uint64
	// Rejects counts admission attempts that failed validation.
	Rejects uint64
	// Matches counts completed Match calls.
	Matches uint64
	// MatchNS is the cumulative wall time of completed Match calls.
	MatchNS int64
}

// Corpus is one replica's corpus index: an in-memory map of entries
// backed by the store layer. The local backend is the durable tier the
// index recovers from at startup; the ring backend (the cluster-
// wrapped store, or the local backend again on a single replica) is
// where uploads are written so they reach their ring owner.
type Corpus struct {
	local store.Backend
	ring  store.Backend

	mu      sync.RWMutex
	entries map[string]*Entry

	admits, rejects, matches atomic.Uint64
	matchNS                  atomic.Int64
}

// New builds the corpus over its backends and recovers the index from
// the local tier: every resident "corpus-" key is decoded back into an
// entry (the disk tier's startup scrub has already discarded corrupt
// files). ring may equal local on a single replica.
func New(local, ring store.Backend) *Corpus {
	c := &Corpus{local: local, ring: ring, entries: map[string]*Entry{}}
	for _, key := range local.Keys() {
		if !strings.HasPrefix(key, "corpus-") {
			continue
		}
		v, ok := local.Get(key)
		if !ok {
			continue
		}
		if e, ok := v.(*Entry); ok && e.ID == key {
			c.entries[key] = e
		}
	}
	return c
}

// Admit validates and inserts an upload, persisting it through the
// ring backend so the entry reaches its owner replica. Admitting an
// already-present ID is an idempotent no-op (reported as admitted:
// the entry is in the corpus either way).
func (c *Corpus) Admit(e *Entry) error {
	if err := c.validate(e); err != nil {
		c.rejects.Add(1)
		return err
	}
	c.mu.Lock()
	_, present := c.entries[e.ID]
	if !present {
		c.entries[e.ID] = e
	}
	c.mu.Unlock()
	if !present {
		c.admits.Add(1)
		c.ring.Put(e.ID, e, entrySize(e))
	}
	return nil
}

// admitSeed inserts a built-in observation through the local backend
// only: seeds are regenerated identically on every replica, so there
// is nothing to distribute, and a slow peer must never stall startup.
func (c *Corpus) admitSeed(e *Entry) error {
	if err := c.validate(e); err != nil {
		return err
	}
	c.mu.Lock()
	_, present := c.entries[e.ID]
	if !present {
		c.entries[e.ID] = e
	}
	c.mu.Unlock()
	if !present {
		c.local.Put(e.ID, e, entrySize(e))
	}
	return nil
}

// validate rejects structurally unusable entries before they reach the
// index.
func (c *Corpus) validate(e *Entry) error {
	if e.ID == "" || e.Name == "" {
		return fmt.Errorf("corpus: entry needs an id and a name")
	}
	if len(e.Vars) != len(workload.DatasetVars) {
		return fmt.Errorf("corpus: entry %s has %d variables, want %d", e.Name, len(e.Vars), len(workload.DatasetVars))
	}
	finite := 0
	for _, v := range e.Vars {
		if math.IsInf(v, 0) {
			return fmt.Errorf("corpus: entry %s has an infinite variable", e.Name)
		}
		if !math.IsNaN(v) {
			finite++
		}
	}
	if finite == 0 {
		return fmt.Errorf("corpus: entry %s has no finite variables", e.Name)
	}
	switch e.Source {
	case SourceSeed, SourceUpload:
	default:
		return fmt.Errorf("corpus: entry %s has unknown source %q", e.Name, e.Source)
	}
	return nil
}

// entrySize is the declared store residency of an entry.
func entrySize(e *Entry) int64 {
	data, ok := EntryCodec{}.Encode(e)
	if !ok {
		return 0
	}
	return int64(len(data))
}

// Get returns the local entry under id.
func (c *Corpus) Get(id string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[id]
	return e, ok
}

// Delete removes id from the local index and backends, reporting
// whether it was present. Cluster-wide deletion is the serving layer's
// job (it broadcasts to each replica's internal corpus endpoint).
func (c *Corpus) Delete(id string) bool {
	c.mu.Lock()
	_, present := c.entries[id]
	delete(c.entries, id)
	c.mu.Unlock()
	if present {
		c.ring.Delete(id)
		c.local.Delete(id)
	}
	return present
}

// List returns the local entries in the corpus's canonical order:
// by name, then ID. Every ranking and cache key is derived from this
// order, so two replicas holding the same entries agree on it.
func (c *Corpus) List() []*Entry {
	c.mu.RLock()
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	c.mu.RUnlock()
	SortEntries(out)
	return out
}

// SortEntries orders entries canonically (name, then ID) in place.
func SortEntries(entries []*Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Name != entries[j].Name {
			return entries[i].Name < entries[j].Name
		}
		return entries[i].ID < entries[j].ID
	})
}

// Merge unions entry lists (a replica's local index with its peers'),
// deduplicating by ID — entries are content-addressed, so two replicas
// never disagree about an ID's value — and returns the canonical
// order.
func Merge(lists ...[]*Entry) []*Entry {
	seen := map[string]bool{}
	var out []*Entry
	for _, list := range lists {
		for _, e := range list {
			if e == nil || seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	SortEntries(out)
	return out
}

// Stats snapshots the corpus counters.
func (c *Corpus) Stats() Stats {
	c.mu.RLock()
	st := Stats{Entries: len(c.entries)}
	for _, e := range c.entries {
		if e.Source == SourceSeed {
			st.Seeded++
		}
	}
	c.mu.RUnlock()
	st.Admits = c.admits.Load()
	st.Rejects = c.rejects.Load()
	st.Matches = c.matches.Load()
	st.MatchNS = c.matchNS.Load()
	return st
}

// ObserveMatch records one completed match for the counters.
func (c *Corpus) ObserveMatch(d time.Duration) {
	c.matches.Add(1)
	c.matchNS.Add(d.Nanoseconds())
}

// MatchOptions tune a Match.
type MatchOptions struct {
	// Seed drives the embedding's multi-start solver.
	Seed uint64
	// Landmarks switches joint embeddings over more observations than
	// this to landmark MDS (0 = always solve exactly).
	Landmarks int
	// Par is the shared worker budget; results are byte-identical at
	// any worker count.
	Par *par.Budget
	// K truncates the neighbor list to the K nearest (0 = all).
	K int
}

// Neighbor is one ranked corpus entry of a match.
type Neighbor struct {
	ID     string `json:"id"`     // ID is the matched entry's store key.
	Name   string `json:"name"`   // Name is the matched entry's label.
	Source string `json:"source"` // Source is "seed" or "upload".
	Jobs   int    `json:"jobs"`   // Jobs is the matched entry's log length.
	// Distance is the Co-plot map distance between the entry's point
	// and the query's point in the gauge-canonicalized joint embedding.
	Distance float64 `json:"distance"`
	// Deltas holds, per variable code, the query's z-score minus the
	// entry's z-score in the joint normalization: positive means the
	// query is higher on that variable than the neighbor.
	Deltas map[string]float64 `json:"deltas"`
}

// MatchResult is a completed match: the ranked neighbors plus the
// joint embedding they were ranked in.
type MatchResult struct {
	// Query is the query observation's label.
	Query string `json:"query"`
	// CorpusSize is how many corpus entries joined the embedding.
	CorpusSize int `json:"corpus_size"`
	// Alienation is the joint embedding's Guttman coefficient of
	// alienation.
	Alienation float64 `json:"alienation"`
	// Stress is the joint embedding's normalized stress.
	Stress float64 `json:"stress"`
	// Neighbors is the ranked list, nearest first; ties break by entry
	// name, then ID.
	Neighbors []Neighbor `json:"neighbors"`
	// Points holds the joint embedding in the dissimilarity gauge
	// (corpus entries in canonical order, the query last).
	Points []core.Point `json:"points"`
	// Arrows holds the joint embedding's variable arrows.
	Arrows []core.Arrow `json:"arrows"`
}

// Match embeds the query jointly with the corpus entries and ranks the
// entries by map distance to the query. entries must already be in
// canonical order (List or Merge provide it); the query row is
// appended last. The joint table applies the batch pipeline's
// column-mean substitution for missing values, core.Embed draws the
// map (honoring the landmark threshold), and the configuration is
// brought to the dissimilarity gauge before distances are read off.
func Match(ctx context.Context, entries []*Entry, query workload.Variables, opts MatchOptions) (*MatchResult, error) {
	if len(entries) < 2 {
		return nil, fmt.Errorf("corpus: need at least 2 entries to match against, have %d", len(entries))
	}
	rows := make([]workload.Variables, 0, len(entries)+1)
	for _, e := range entries {
		rows = append(rows, e.Variables())
	}
	rows = append(rows, query)
	tab, err := workload.BuildTable(rows, workload.DatasetVars)
	if err != nil {
		return nil, err
	}
	ds := &core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	z := core.Normalize(ds)
	d := core.CityBlockWith(z, opts.Par)
	emb, err := core.Embed(ctx, ds.Variables, z, d, mds.Options{Seed: opts.Seed, Par: opts.Par, Landmarks: opts.Landmarks})
	if err != nil {
		return nil, err
	}
	mds.ScaleToDissim(emb.Fit.Config, d)
	out := &MatchResult{
		Query:      query.Name,
		CorpusSize: len(entries),
		Alienation: emb.Fit.Alienation,
		Stress:     emb.Fit.Stress,
		Points:     core.Points(ds.Observations, emb.Fit.Config),
		Arrows:     emb.Arrows,
	}
	qi := len(entries)
	qp := out.Points[qi]
	for i, e := range entries {
		deltas := make(map[string]float64, len(ds.Variables))
		for j, code := range ds.Variables {
			deltas[code] = z.At(qi, j) - z.At(i, j)
		}
		out.Neighbors = append(out.Neighbors, Neighbor{
			ID: e.ID, Name: e.Name, Source: e.Source, Jobs: e.Jobs,
			Distance: math.Hypot(out.Points[i].X-qp.X, out.Points[i].Y-qp.Y),
			Deltas:   deltas,
		})
	}
	sort.SliceStable(out.Neighbors, func(i, j int) bool {
		a, b := out.Neighbors[i], out.Neighbors[j]
		if a.Distance != b.Distance {
			return a.Distance < b.Distance
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
	if opts.K > 0 && opts.K < len(out.Neighbors) {
		out.Neighbors = out.Neighbors[:opts.K]
	}
	return out, nil
}
