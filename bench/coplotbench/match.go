package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"

	"coplot/internal/core"
	"coplot/internal/corpus"
	"coplot/internal/par"
	"coplot/internal/service"
	"coplot/internal/store"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// corpusUploads brings the corpus to 250 entries over the 15 seeds.
const corpusUploads = 235

// matchOpts is /v1/match's canonical option list for a query named
// name at the defaults.
func matchOpts(name string) []string {
	return []string{"name=" + name, "seed=7", fmt.Sprintf("landmarks=%d", deployLandmarks), "k=0",
		fmt.Sprintf("procs=%d", procs), "sched=easy", "alloc=unlimited"}
}

// matchCorpus is the match-corpus workload: set-up admits the uploads,
// then every timed request ranks the corpus against a fresh trace.
type matchCorpus struct {
	seed    uint64
	uploads []request
	budget  *par.Budget
	store   store.Backend
	entries []*corpus.Entry
}

func newMatchCorpus(seed uint64) (*matchCorpus, error) {
	m := &matchCorpus{seed: seed, budget: par.NewBudget(deployJobs)}
	for j := 0; j < corpusUploads; j++ {
		name := fmt.Sprintf("u%d", j)
		body, err := smallLog(seed, "upload/"+name)
		if err != nil {
			return nil, err
		}
		m.uploads = append(m.uploads, request{
			method: "POST", path: "/v1/corpus?" + url.Values{"name": {name}}.Encode(), ctype: "text/plain", body: body,
		})
	}
	return m, nil
}

func (m *matchCorpus) setup() []request { return m.uploads }

// query is timed request i's trace and label.
func (m *matchCorpus) query(i int) (string, []byte, error) {
	name := fmt.Sprintf("q%d", i)
	body, err := smallLog(m.seed, "query/"+name)
	return name, body, err
}

func (m *matchCorpus) request(i int) (request, error) {
	name, body, err := m.query(i)
	if err != nil {
		return request{}, err
	}
	return request{method: "POST", path: "/v1/match?name=" + name, ctype: "text/plain", body: body}, nil
}

// replica rebuilds the corpus the way coplotd does — the 15 seeds at
// start-up, then each upload's admission — and holds each admitted
// entry to the one the server answered.
func (m *matchCorpus) replica(tr *tracer, dir string, setup []response) error {
	st, err := replicaStore(dir)
	if err != nil {
		return err
	}
	c := corpus.New(st, st)
	if _, err := c.Seed(0); err != nil {
		return err
	}
	mach, err := service.ParseMachine("cli", procs, "easy", "unlimited")
	if err != nil {
		return err
	}
	for j, up := range m.uploads {
		name := fmt.Sprintf("u%d", j)
		log, err := swf.Parse(bytes.NewReader(up.body))
		if err != nil {
			return err
		}
		v, err := workload.Compute(name, log, mach)
		if err != nil {
			return err
		}
		e := corpus.FromVariables(corpus.EntryID(name, mach, up.body), corpus.SourceUpload, len(log.Jobs), v)
		tr.begin(fmt.Sprintf("admit/%d", j), "")
		if err := tr.do("corpus.admit", func() error { return c.Admit(e) }); err != nil {
			return err
		}
		var got struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(setup[j].body, &got); err != nil {
			return fmt.Errorf("upload %s answer: %w", name, err)
		}
		if got.ID != e.ID {
			return fmt.Errorf("upload %s: server admitted %s, replica %s", name, got.ID, e.ID)
		}
	}
	m.store, m.entries = st, c.List()
	return nil
}

// direct is /v1/match as a chain of public calls: the cache read over
// the corpus IDs and the trace, swf.Parse, workload.Compute,
// corpus.Match and json.Marshal, then the write-through.
func (m *matchCorpus) direct(tr *tracer, i int) ([]byte, string, error) {
	ctx := context.Background()
	name, body, err := m.query(i)
	if err != nil {
		return nil, "", err
	}
	blobs := make([][]byte, 0, len(m.entries)+1)
	for _, e := range m.entries {
		blobs = append(blobs, []byte(e.ID))
	}
	key, hit := lookup(tr, m.store, "match", matchOpts(name), append(blobs, body)...)
	if hit != nil {
		return nil, "", fmt.Errorf("fresh query %s found in the replica store", key)
	}
	mach, err := service.ParseMachine("cli", procs, "easy", "unlimited")
	if err != nil {
		return nil, "", err
	}
	var log *swf.Log
	if err := tr.do("swf.parse", func() (err error) { log, err = swf.Parse(bytes.NewReader(body)); return err }); err != nil {
		return nil, "", err
	}
	tr.note("swf.bytes", float64(len(body)))
	var query workload.Variables
	if err := tr.do("workload.compute", func() (err error) { query, err = workload.Compute(name, log, mach); return err }); err != nil {
		return nil, "", err
	}
	tr.note("workload.jobs", float64(len(log.Jobs)))
	var res *corpus.MatchResult
	err = tr.do("corpus.match", func() (err error) {
		res, err = corpus.Match(ctx, m.entries, query, corpus.MatchOptions{Seed: analysisSeed, Landmarks: deployLandmarks, Par: m.budget})
		return err
	})
	if err != nil {
		return nil, "", err
	}
	if tr != nil {
		ds, err := jointDataset(m.entries, query)
		if err != nil {
			return nil, "", err
		}
		if err := decompose(ctx, tr, "corpus.match", ds, m.budget, res.Alienation); err != nil {
			return nil, "", err
		}
	}
	var out []byte
	if err := tr.do("corpus.encode", func() (err error) { out, err = json.Marshal(res); return err }); err != nil {
		return nil, "", err
	}
	out = append(out, '\n')
	save(tr, m.store, key, appJSON, out)
	return out, key, nil
}

// jointDataset is the table corpus.Match embeds: every entry's
// variables, then the query's.
func jointDataset(entries []*corpus.Entry, query workload.Variables) (*core.Dataset, error) {
	rows := make([]workload.Variables, 0, len(entries)+1)
	for _, e := range entries {
		vals := make(map[string]float64, len(e.Vars))
		for k, code := range workload.DatasetVars {
			vals[code] = e.Vars[k]
		}
		rows = append(rows, workload.Variables{Name: e.Name, Values: vals})
	}
	tab, err := workload.BuildTable(append(rows, query), workload.DatasetVars)
	if err != nil {
		return nil, err
	}
	return &core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data}, nil
}

func (m *matchCorpus) check(_ context.Context, in checkInput) (string, error) {
	return checkLeading(in.ph, in.verify, m)
}
