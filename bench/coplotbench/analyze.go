package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime"
	"mime/multipart"

	"coplot/internal/core"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/service"
	"coplot/internal/store"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// analyzeOpts is /v1/analyze's canonical option list at the defaults
// every request uses — the list its cache key is derived from.
var analyzeOpts = []string{"prune=0", "seed=7", fmt.Sprintf("procs=%d", procs), fmt.Sprintf("landmarks=%d", deployLandmarks), "vars="}

// analyzeArchive is the analyze-archive workload: every request maps
// 15 logs drawn from the archive pool, under part names no other
// request uses, so the response cache never hits.
type analyzeArchive struct {
	seed   uint64
	pool   *archive
	budget *par.Budget
	store  store.Backend
}

func newAnalyzeArchive(seed uint64) (*analyzeArchive, error) {
	pool, err := newArchive(seed)
	if err != nil {
		return nil, err
	}
	return &analyzeArchive{seed: seed, pool: pool, budget: par.NewBudget(deployJobs)}, nil
}

func (a *analyzeArchive) setup() []request { return nil }

func (a *analyzeArchive) request(i int) (request, error) {
	label := fmt.Sprintf("a%d", i)
	return analyzeRequest(label, a.pool.analysis(a.seed, label))
}

func (a *analyzeArchive) replica(tr *tracer, dir string, _ []response) error {
	st, err := replicaStore(dir)
	a.store = st
	return err
}

func (a *analyzeArchive) direct(tr *tracer, i int) ([]byte, string, error) {
	r, err := a.request(i)
	if err != nil {
		return nil, "", err
	}
	logs, err := decodeLogs(tr, r)
	if err != nil {
		return nil, "", err
	}
	return analyzePipeline(context.Background(), tr, a.store, a.budget, logs)
}

// decodeLogs reads an analyze request body and its SWF parts in order,
// as the service does before keying them.
func decodeLogs(tr *tracer, r request) ([]namedLog, error) {
	var logs []namedLog
	err := tr.do("service.decode", func() error {
		_, params, err := mime.ParseMediaType(r.ctype)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			data, err := io.ReadAll(p)
			if err != nil {
				return err
			}
			logs = append(logs, namedLog{name: p.FileName(), data: data})
		}
	})
	return logs, err
}

// logBlobs lists an analysis's cache-key blobs: each log's name, then
// its bytes.
func logBlobs(logs []namedLog) [][]byte {
	blobs := make([][]byte, 0, 2*len(logs))
	for _, l := range logs {
		blobs = append(blobs, []byte(l.name), l.data)
	}
	return blobs
}

func (a *analyzeArchive) check(_ context.Context, in checkInput) (string, error) {
	for _, s := range in.ph.samples {
		if s.hit {
			return "", fmt.Errorf("request %d was a cache hit; every analysis should be fresh", s.i)
		}
	}
	return checkLeading(in.ph, in.verify, a)
}

// analyzePipeline is /v1/analyze over SWF logs as a chain of public
// calls: the cache read, then ParseMachine, swf.Parse and
// workload.Compute per log, DatasetFromVariables, core.AnalyzeContext
// and the report, then the write-through.
func analyzePipeline(ctx context.Context, tr *tracer, st store.Backend, b *par.Budget, logs []namedLog) ([]byte, string, error) {
	key, hit := lookup(tr, st, "analyze", analyzeOpts, logBlobs(logs)...)
	if hit != nil {
		return nil, "", fmt.Errorf("fresh analysis %s found in the replica store", key)
	}
	m, err := service.ParseMachine("cli", procs, "easy", "unlimited")
	if err != nil {
		return nil, "", err
	}
	rows := make([]workload.Variables, len(logs))
	for k, l := range logs {
		var log *swf.Log
		err := tr.do("swf.parse", func() (err error) {
			log, err = swf.Parse(bytes.NewReader(l.data))
			return err
		})
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", l.name, err)
		}
		tr.note("swf.bytes", float64(len(l.data)))
		err = tr.do("workload.compute", func() (err error) {
			rows[k], err = workload.Compute(l.name, log, m)
			return err
		})
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", l.name, err)
		}
		tr.note("workload.jobs", float64(len(log.Jobs)))
	}
	var ds *core.Dataset
	err = tr.do("workload.table", func() (err error) {
		ds, err = service.DatasetFromVariables(rows)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	var res *core.Result
	err = tr.do("core.analyze", func() (err error) {
		res, err = core.AnalyzeContext(ctx, ds, core.Options{
			MDS: mds.Options{Seed: analysisSeed, Par: b, Landmarks: deployLandmarks},
		})
		return err
	})
	if err != nil {
		return nil, "", err
	}
	if tr != nil {
		if err := decompose(ctx, tr, "core.analyze", ds, b, res.Alienation); err != nil {
			return nil, "", err
		}
	}
	var body []byte
	tr.do("core.report", func() error { body = []byte(res.Report()); return nil })
	save(tr, st, key, textPlain, body)
	return body, key, nil
}
