package service

// The cached endpoint handlers. Each takes its decoded options (see
// api.go), names the input blobs its cache key covers, and returns a
// compute closure that renders the exact bytes the matching CLI writes
// to stdout — through the shared helpers in input.go and render.go, so
// the identity holds by construction.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"

	"coplot"
	"coplot/internal/core"
	"coplot/internal/corpus"
	"coplot/internal/engine"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/rng"
	"coplot/internal/store"
	"coplot/internal/swf"
	"coplot/internal/validate"
	"coplot/internal/workload"
	"coplot/pkg/coplotclient"
)

// parseLogBody parses a request body as one SWF log.
func parseLogBody(body []byte) (*swf.Log, error) {
	log, err := swf.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, badRequest(err)
	}
	return log, nil
}

// swfPart is one uploaded log of a multipart analyze request.
type swfPart struct {
	name string
	data []byte
}

// analyze maps POST /v1/analyze: the Co-plot pipeline over a CSV data
// matrix (any body) or a set of SWF logs (multipart/form-data, one
// part per log, at least 3). The body is the exact cmd/coplot report.
func (s *Service) analyze(r *http.Request, body []byte, o *coplotclient.AnalyzeOptions) ([][]byte, func(context.Context) (*response, error), error) {
	mt, params, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if strings.HasPrefix(mt, "multipart/") {
		// SWF mode. The parts are decoded (in place, over body) before
		// keying, so the cache key depends on the logs' names and bytes
		// — not on the per-request multipart boundary. Each log is
		// characterized through logVars, so a log seen before under
		// any name skips the parse and the characterization.
		parts, err := parseMultipartLogs(body, params["boundary"])
		if err != nil {
			return nil, nil, err
		}
		blobs := make([][]byte, 0, 2*len(parts))
		for _, p := range parts {
			blobs = append(blobs, []byte(p.name), p.data)
		}
		run := func(ctx context.Context) (*response, error) {
			m, err := ParseMachine("cli", o.Procs, "easy", "unlimited")
			if err != nil {
				return nil, badRequest(err)
			}
			rows := make([]workload.Variables, len(parts))
			for i, p := range parts {
				e, err := s.logVars(p.data, m)
				var pe *engine.PanicError
				if errors.As(err, &pe) {
					return nil, err
				}
				if err != nil {
					return nil, badRequest(fmt.Errorf("%s: %v", p.name, err))
				}
				rows[i] = e.Variables()
				rows[i].Name = p.name
			}
			ds, err := DatasetFromVariables(rows)
			if err != nil {
				return nil, badRequest(err)
			}
			return s.analyzeDataset(ctx, ds, o)
		}
		return blobs, run, nil
	}

	// CSV mode: the body is the data matrix.
	run := func(ctx context.Context) (*response, error) {
		ds, err := ParseCSVDataset("body", bytes.NewReader(body))
		if err != nil {
			return nil, badRequest(err)
		}
		return s.analyzeDataset(ctx, ds, o)
	}
	return [][]byte{body}, run, nil
}

// errEmptyLog fails a part with no jobs. workload.Compute's own error
// names the log, and a shared characterization must not carry the
// name of whichever request computed it.
var errEmptyLog = errors.New("empty log")

// logVarsSize is the declared store residency of one per-log artifact:
// the wire form of a nine-variable corpus.Entry is at most about this
// long, and a constant spares an encode per characterized log.
const logVarsSize = 400

// logVars characterizes one SWF log on machine m through the parts
// store, keyed by the machine and the log bytes alone: the same log
// uploaded in another request, under any part name, is parsed and
// characterized once. The artifact is a nameless corpus.Entry, so the
// disk tier carries it in the corpus wire form (its "swfvars-" key
// keeps it out of the corpus index). The error is bare — every caller,
// a single-flight waiter included, names its own part — and a failure
// is never stored.
func (s *Service) logVars(data []byte, m machine.Machine) (*corpus.Entry, error) {
	key := logVarsKey(data, m)
	v, err := s.parts.DoSized(key, protected(key, func() (any, int64, error) {
		log, err := swf.Parse(bytes.NewReader(data))
		if err != nil {
			return nil, 0, err
		}
		if len(log.Jobs) == 0 {
			return nil, 0, errEmptyLog
		}
		row, err := workload.Compute("", log, m)
		if err != nil {
			return nil, 0, err
		}
		return corpus.FromVariables(key, "", len(log.Jobs), row), logVarsSize, nil
	}))
	if err != nil {
		return nil, err
	}
	e, ok := v.(*corpus.Entry)
	if !ok {
		return nil, fmt.Errorf("artifact %s holds %T, not a characterized log", key, v)
	}
	return e, nil
}

// logVarsKey is the store key of log's characterization on machine m.
func logVarsKey(log []byte, m machine.Machine) string {
	return store.Key("swfvars", []string{
		fmt.Sprintf("procs=%d", m.Procs),
		fmt.Sprintf("sched=%d", m.Scheduler),
		fmt.Sprintf("alloc=%d", m.Allocator),
	}, log)
}

// parseMultipartLogs decodes an analyze request's multipart body into
// named SWF blobs, in part order. It decodes in place: the parts'
// bytes are written back over body, which holds no multipart framing
// afterwards, and each part's data aliases body. That is safe because
// decoding never moves a byte forward — the byte written at offset j
// comes from a body offset at or after j — and each Read below may
// write only below the offset the multipart reader has consumed.
func parseMultipartLogs(body []byte, boundary string) ([]swfPart, error) {
	if boundary == "" {
		return nil, badRequest(fmt.Errorf("multipart body without a boundary"))
	}
	src := bytes.NewReader(body)
	mr := multipart.NewReader(src, boundary)
	var parts []swfPart
	w := 0 // bytes decoded so far, and the next write offset
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, badRequest(err)
		}
		start := w
		for {
			// The boundary line before the first part is consumed and
			// never decoded, so the window is never empty.
			n, err := p.Read(body[w : len(body)-src.Len()])
			w += n
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, badRequest(err)
			}
		}
		name := p.FileName()
		if name == "" {
			name = p.FormName()
		}
		parts = append(parts, swfPart{name: name, data: body[start:w:w]})
	}
	if len(parts) < 3 {
		return nil, badRequest(fmt.Errorf("need at least 3 SWF logs, got %d", len(parts)))
	}
	return parts, nil
}

// analyzeDataset runs the Co-plot pipeline the way cmd/coplot does —
// same defaults, same report — drawing kernel workers from the
// service-wide budget.
func (s *Service) analyzeDataset(ctx context.Context, ds *core.Dataset, o *coplotclient.AnalyzeOptions) (*response, error) {
	if o.Vars != "" {
		var err error
		ds, err = ds.Select(strings.Split(o.Vars, ","))
		if err != nil {
			return nil, badRequest(err)
		}
	}
	// A dataset that fails validation (a non-finite CSV cell, say) is
	// the caller's data, not a server fault.
	if err := ds.Validate(); err != nil {
		return nil, badRequest(err)
	}
	res, err := core.AnalyzeContext(ctx, ds, core.Options{
		MDS:            mds.Options{Seed: o.Seed, Par: s.budget, Landmarks: o.Landmarks},
		PruneThreshold: o.Prune,
	})
	if err != nil {
		// Degenerate input is the caller's data, not a server fault.
		var deg *mds.DegenerateInputError
		if errors.As(err, &deg) {
			return nil, degenerate(err)
		}
		return nil, err
	}
	return textResponse(res.Report()), nil
}

// variables maps POST /v1/variables: the Table-1 variables of the SWF
// log in the body, rendered exactly as cmd/wstat prints them.
func (s *Service) variables(r *http.Request, body []byte, o *coplotclient.VariablesOptions) ([][]byte, func(context.Context) (*response, error), error) {
	m, err := cliMachine(o.Machine)
	if err != nil {
		return nil, nil, err
	}
	run := func(ctx context.Context) (*response, error) {
		log, err := parseLogBody(body)
		if err != nil {
			return nil, err
		}
		text, err := VariablesReport(o.Name, log, m)
		if err != nil {
			return nil, badRequest(err)
		}
		return textResponse(text), nil
	}
	return [][]byte{body}, run, nil
}

// hurst maps POST /v1/hurst: the three Hurst estimates per Table-3
// series of the SWF log in the body, rendered exactly as cmd/hurst
// prints them. The estimator fan-out draws from the service-wide
// worker budget.
func (s *Service) hurst(r *http.Request, body []byte, o *coplotclient.HurstOptions) ([][]byte, func(context.Context) (*response, error), error) {
	run := func(ctx context.Context) (*response, error) {
		log, err := parseLogBody(body)
		if err != nil {
			return nil, err
		}
		text, err := HurstReport(ctx, o.Name, log, s.budget, nil)
		if err != nil {
			return nil, err
		}
		return textResponse(text), nil
	}
	return [][]byte{body}, run, nil
}

// validate maps POST /v1/validate: the section-1 validity audit of the
// SWF log in the body, rendered exactly as cmd/swfcheck prints it; the
// X-Coplot-Validate-Errors header carries the error-severity count.
func (s *Service) validate(r *http.Request, body []byte, o *coplotclient.ValidateOptions) ([][]byte, func(context.Context) (*response, error), error) {
	m, err := cliMachine(o.Machine)
	if err != nil {
		return nil, nil, err
	}
	run := func(ctx context.Context) (*response, error) {
		log, err := parseLogBody(body)
		if err != nil {
			return nil, err
		}
		text, errs := ValidateReport(o.Name, log, m, validate.Options{
			DowntimeFactor: o.DowntimeFactor, TopUserWarn: o.TopUser,
		})
		resp := textResponse(text)
		resp.extra = map[string]string{"X-Coplot-Validate-Errors": strconv.Itoa(errs)}
		return resp, nil
	}
	return [][]byte{body}, run, nil
}

// scaleLoad maps POST /v1/scale-load: the section-8 load-modification
// operators applied to the SWF log in the body, answered as the scaled
// log in SWF. The method is a coplot.LoadMethod wire name.
func (s *Service) scaleLoad(r *http.Request, body []byte, o *coplotclient.ScaleLoadOptions) ([][]byte, func(context.Context) (*response, error), error) {
	method, err := coplot.ParseLoadMethod(o.Method)
	if err != nil {
		return nil, nil, badRequest(err)
	}
	run := func(ctx context.Context) (*response, error) {
		log, err := parseLogBody(body)
		if err != nil {
			return nil, err
		}
		out, err := coplot.ScaleLoadWith(log, method, o.Factor, o.Procs)
		if err != nil {
			return nil, badRequest(err)
		}
		var buf bytes.Buffer
		if err := swf.Write(&buf, out); err != nil {
			return nil, err
		}
		return textResponse(buf.String()), nil
	}
	return [][]byte{body}, run, nil
}

// generate maps POST /v1/generate: a synthetic workload from one of
// the named models (ModelByName), answered in SWF exactly as cmd/wgen
// writes it — the options match the wgen flags and defaults.
func (s *Service) generate(r *http.Request, body []byte, o *coplotclient.GenerateOptions) ([][]byte, func(context.Context) (*response, error), error) {
	run := func(ctx context.Context) (*response, error) {
		gen, err := ModelByName(o.Model, o.Procs)
		if err != nil {
			return nil, badRequest(err)
		}
		log := gen.Generate(rng.New(o.Seed), o.N)
		var buf bytes.Buffer
		if err := swf.Write(&buf, log); err != nil {
			return nil, err
		}
		return textResponse(buf.String()), nil
	}
	return nil, run, nil
}

// cliMachine resolves the machine options the way the CLIs' flags do,
// as a machine named "cli" so reports match the CLIs byte for byte.
func cliMachine(o coplotclient.MachineOptions) (machine.Machine, error) {
	m, err := ParseMachine("cli", o.Procs, o.Sched, o.Alloc)
	if err != nil {
		return machine.Machine{}, badRequest(err)
	}
	return m, nil
}
