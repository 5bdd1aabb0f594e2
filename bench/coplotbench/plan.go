package main

import (
	"bytes"
	"fmt"
	"mime/multipart"

	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/internal/swf"
)

// request is one prepared HTTP request of a workload plan. Bodies are
// built before the clock starts, so request latency never includes
// the benchmark's own input generation.
type request struct {
	method string
	path   string // path and query
	ctype  string
	body   []byte
}

// modelNames are the synthetic workload models every plan draws logs
// from, one per family the paper compares.
var modelNames = []string{"lublin", "jann", "downey", "feitelson96"}

// procs is the machine size of every generated log and every request:
// the service default, so options never enter the picture.
const procs = 128

// generateLog renders n jobs of the named model as SWF bytes, seeded
// from (seed, label) so every log of a plan is a pure function of the
// run seed.
func generateLog(seed uint64, label, model string, n int) ([]byte, error) {
	gen, err := service.ModelByName(model, procs)
	if err != nil {
		return nil, err
	}
	return writeLog(gen.Generate(rng.New(rng.Derive(seed, label)), n))
}

// writeLog renders a log as SWF bytes.
func writeLog(l *swf.Log) ([]byte, error) {
	var buf bytes.Buffer
	if err := swf.Write(&buf, l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// namedLog is one SWF log of a multipart analyze body.
type namedLog struct {
	name string
	data []byte
}

// multipartBody assembles an analyze body with a boundary derived from
// label, so the body bytes depend on nothing but the plan.
func multipartBody(label string, logs []namedLog) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(fmt.Sprintf("coplotbench-%x", rng.Derive(0, label))); err != nil {
		return nil, "", err
	}
	for _, l := range logs {
		fw, err := mw.CreateFormFile("log", l.name)
		if err != nil {
			return nil, "", err
		}
		if _, err := fw.Write(l.data); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// archive is the analyze workloads' pool of 2000-job logs: every model
// at 16 seeds, 64 logs in all. A request draws its 15 logs from it, so
// each log recurs across requests the way an archive's logs recur
// across studies.
type archive struct {
	logs []namedLog
}

// archiveSize, archiveJobs and logsPerAnalysis fix the paper's shape:
// 15 observations of about 2000 jobs each.
const (
	archiveSeeds    = 16
	archiveJobs     = 2000
	logsPerAnalysis = 15
)

// newArchive generates the pool for a run seed.
func newArchive(seed uint64) (*archive, error) {
	a := &archive{}
	for _, m := range modelNames {
		for s := 0; s < archiveSeeds; s++ {
			label := fmt.Sprintf("archive/%s/%d", m, s)
			data, err := generateLog(seed, label, m, archiveJobs)
			if err != nil {
				return nil, err
			}
			a.logs = append(a.logs, namedLog{name: fmt.Sprintf("%s-%d", m, s), data: data})
		}
	}
	return a, nil
}

// analysis draws a seeded 15-log subset of the pool for the request
// named label. Part names carry the label, so no two requests share a
// cache key even when they draw the same logs.
func (a *archive) analysis(seed uint64, label string) []namedLog {
	r := rng.New(rng.Derive(seed, label))
	perm := r.Perm(len(a.logs))
	out := make([]namedLog, logsPerAnalysis)
	for k := range out {
		l := a.logs[perm[k]]
		out[k] = namedLog{name: fmt.Sprintf("%s-%s.swf", label, l.name), data: l.data}
	}
	return out
}

// analyzeRequest renders an analysis as a POST /v1/analyze request.
func analyzeRequest(label string, logs []namedLog) (request, error) {
	body, ctype, err := multipartBody(label, logs)
	if err != nil {
		return request{}, err
	}
	return request{method: "POST", path: "/v1/analyze", ctype: ctype, body: body}, nil
}

// smallLog is a 300–500-job trace of a seeded model: the size of a
// single query or upload.
func smallLog(seed uint64, label string) ([]byte, error) {
	r := rng.New(rng.Derive(seed, label+"/shape"))
	model := modelNames[r.Intn(len(modelNames))]
	return generateLog(seed, label, model, 300+r.Intn(201))
}
