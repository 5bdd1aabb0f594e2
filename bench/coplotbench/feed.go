package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"coplot/internal/machine"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/internal/stream"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// The stream-feed schedule: appends arrive at feedRate per second,
// alternating between feedStreams streams of feedObservations growing
// logs, feedChunk jobs at a time, round-robin over the observations.
const (
	feedRate         = 60
	feedStreams      = 2
	feedObservations = 8
	feedChunk        = 100
	// feedBlock is how many jobs of an observation's log are generated
	// at once; blocks are spliced end to end as the log grows.
	feedBlock = 1000
)

// streamFeed is the stream-feed workload.
type streamFeed struct {
	seed uint64

	mu   sync.Mutex
	logs map[[2]int][]swf.Job // generated jobs per (stream, observation)

	budget   *par.Budget
	machine  machine.Machine
	replicas []*stream.Stream
	acc      map[[2]int][]swf.Job // jobs the replica has accepted per (stream, observation)
}

func newStreamFeed(seed uint64) (*streamFeed, error) {
	m, err := service.ParseMachine("cli", procs, "easy", "unlimited")
	if err != nil {
		return nil, err
	}
	return &streamFeed{seed: seed, logs: map[[2]int][]swf.Job{}, budget: par.NewBudget(deployJobs), machine: m}, nil
}

func (f *streamFeed) setup() []request { return nil }

// slot maps append k to its stream, observation and chunk.
func slot(k int) (st, obs, chunk int) {
	j := k / feedStreams
	return k % feedStreams, j % feedObservations, j / feedObservations
}

// chunk returns jobs [lo, hi) of observation obs of stream st,
// generating blocks as the log grows. Each block comes from its own
// seeded draw of the observation's model and is spliced after the
// previous one, job IDs and submit times continuing.
func (f *streamFeed) chunk(st, obs, lo, hi int) ([]swf.Job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := [2]int{st, obs}
	jobs := f.logs[id]
	for len(jobs) < hi {
		b := len(jobs) / feedBlock
		model := modelNames[(st*feedObservations+obs)%len(modelNames)]
		gen, err := service.ModelByName(model, procs)
		if err != nil {
			return nil, err
		}
		block := gen.Generate(rng.New(rng.Derive(f.seed, fmt.Sprintf("feed/%d/%d/%d", st, obs, b))), feedBlock)
		shift := 0.0
		if len(jobs) > 0 {
			shift = jobs[len(jobs)-1].Submit + 60
		}
		for _, j := range block.Jobs {
			j.ID += len(jobs)
			if j.PrecedingID > 0 {
				j.PrecedingID += len(jobs)
			}
			j.Submit += shift
			jobs = append(jobs, j)
		}
		f.logs[id] = jobs
	}
	return jobs[lo:hi], nil
}

// streamID and obsName label the feed's streams and observations.
func streamID(st int) string { return fmt.Sprintf("feed%d", st) }
func obsName(obs int) string { return fmt.Sprintf("o%d", obs) }

// body renders append k's chunk as SWF bytes.
func (f *streamFeed) body(k int) ([]byte, error) {
	st, obs, c := slot(k)
	jobs, err := f.chunk(st, obs, c*feedChunk, (c+1)*feedChunk)
	if err != nil {
		return nil, err
	}
	return writeLog(&swf.Log{Jobs: jobs})
}

func (f *streamFeed) request(k int) (request, error) {
	st, obs, _ := slot(k)
	body, err := f.body(k)
	if err != nil {
		return request{}, err
	}
	return request{
		method: "POST", path: "/v1/stream/" + streamID(st) + "/append?obs=" + obsName(obs),
		ctype: "text/plain", body: body,
	}, nil
}

// replica starts fresh direct streams, configured as coplotd configures
// a stream created without options.
func (f *streamFeed) replica(_ *tracer, _ string, _ []response) error {
	f.replicas = make([]*stream.Stream, feedStreams)
	for st := range f.replicas {
		s, err := stream.New(stream.Config{
			Name: streamID(st), Machine: f.machine, Seed: analysisSeed, Par: f.budget,
			Landmarks: deployLandmarks, DriftPos: stream.DefaultDriftPos, DriftAngle: stream.DefaultDriftAngle,
		})
		if err != nil {
			return err
		}
		f.replicas[st] = s
	}
	f.acc = map[[2]int][]swf.Job{}
	return nil
}

// direct folds append k into the replica stream. Traced, it then times
// the append's two characterizing calls again from outside: the chunk's
// parse and the observation's recomputation over its whole log.
func (f *streamFeed) direct(tr *tracer, k int) ([]byte, string, error) {
	st, obs, _ := slot(k)
	chunk, err := f.body(k)
	if err != nil {
		return nil, "", err
	}
	var snap *stream.Snapshot
	err = tr.do("stream.append", func() (err error) {
		snap, err = f.replicas[st].Append(context.Background(), obsName(obs), chunk)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	if tr != nil {
		err := tr.under("stream.append", func() error {
			var log *swf.Log
			if err := tr.do("swf.parse", func() (err error) { log, err = swf.Parse(bytes.NewReader(chunk)); return err }); err != nil {
				return err
			}
			tr.note("swf.bytes", float64(len(chunk)))
			id := [2]int{st, obs}
			f.acc[id] = append(f.acc[id], log.Jobs...)
			tr.note("workload.jobs", float64(len(f.acc[id])))
			return tr.do("workload.compute", func() error {
				_, err := workload.Compute(obsName(obs), &swf.Log{Jobs: f.acc[id]}, f.machine)
				return err
			})
		})
		if err != nil {
			return nil, "", err
		}
		if snap.Status == stream.StatusOK {
			tr.note("stream.warm", boolFloat(snap.Warm))
			tr.note("stream.iterations", float64(snap.Iterations))
			switch snap.Reanchor {
			case "no-converge", "fit-degraded", "basin-shift":
				tr.note("stream.reanchor", 1)
			}
		}
	}
	out, err := json.Marshal(snap)
	if err != nil {
		return nil, "", err
	}
	return append(out, '\n'), "", nil
}

// check replays every timed append through the replica, holds each
// answered snapshot to the replica's, and holds each stream's final
// snapshot on the server to the replica's last one.
func (f *streamFeed) check(ctx context.Context, in checkInput) (string, error) {
	last := make([][]byte, feedStreams)
	for _, s := range in.ph.samples {
		if s.err != nil {
			return "", fmt.Errorf("append %d failed: %v", s.i, s.err)
		}
		want, _, err := f.direct(nil, s.i)
		if err != nil {
			return "", fmt.Errorf("direct append %d: %w", s.i, err)
		}
		if s.sum != sha256.Sum256(want) {
			return "", fmt.Errorf("append %d: snapshot differs from the direct stream's", s.i)
		}
		st, _, _ := slot(s.i)
		last[st] = want
	}
	for st := range last {
		got, _, err := in.client.Do(ctx, http.MethodGet, "/v1/stream/"+streamID(st), "", nil)
		if err != nil {
			return "", fmt.Errorf("final snapshot of %s: %w", streamID(st), err)
		}
		if !bytes.Equal(got, last[st]) {
			return "", fmt.Errorf("final snapshot of %s differs from the direct stream's", streamID(st))
		}
	}
	return digest(last), nil
}
