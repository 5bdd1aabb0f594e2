// Command coplotbench is the repository's benchmark. It builds
// ./cmd/coplotd, starts it as a subprocess configured like a
// production replica, and drives seeded workloads through
// pkg/coplotclient over loopback: the end-to-end numbers a user of the
// service sees, with the responses checked against the library
// pipeline computed directly. With -trace 1 it also replays a sample of
// the same requests through an in-process service (no socket) and
// through each layer's public functions, and reports per-layer numbers
// that account for the handler's time, writing every span to
// <out>/spans.jsonl.
//
// Usage, from the repository root:
//
//	bash bench/coplotbench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//
// Each workload prints its metrics by name and unit, its sample count
// and output digest, and ends with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// carrying the end-to-end metrics, or with -trace 1 the per-layer ones.
// The exit code is non-zero when an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	repo  string // repository root, where ./cmd/coplotd is built from
	build string // where the server binary and the scratch state go
	out   string // where -trace writes spans.jsonl
	seed  uint64
	// seconds is the length of each timed phase.
	seconds float64
	trace   bool
	// setups is how many fresh servers are set up per workload; setup_s
	// is the median of their set-up times and the last one is measured.
	setups int
	// limit caps the timed requests (0 = only the clock ends the timed
	// phase); the smoke test cuts plans short with it.
	limit int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coplotbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every workload input is generated from")
	seconds := fs.Float64("seconds", 25, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = also replay a sample in-process and layer by layer, and report per-layer metrics")
	out := fs.String("out", "", "directory -trace writes spans.jsonl to (default .bench_build/trace under the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "coplotbench: want -trace 0 or 1, a positive -seconds, and no arguments")
		return 2
	}
	var selected []spec
	for _, sp := range specs {
		if *name == "all" || *name == sp.name {
			selected = append(selected, sp)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "coplotbench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 5, out: *out}
	wd, err := os.Getwd()
	if err == nil {
		cfg.repo, err = findRepo(wd)
	}
	if err != nil {
		fmt.Fprintln(stderr, "coplotbench:", err)
		return 1
	}
	cfg.build = filepath.Join(cfg.repo, ".bench_build")
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.build, "trace")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execute(ctx, cfg, selected, stdout, stderr)
}

// execute builds the server and runs the selected workloads in order,
// printing each one's report and result line.
func execute(ctx context.Context, cfg config, selected []spec, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		fmt.Fprintln(stderr, "coplotbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(cfg.build, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "coplotbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	coplotd := filepath.Join(cfg.build, "bin", "coplotd")
	if err := buildCoplotd(ctx, cfg.repo, coplotd); err != nil {
		fmt.Fprintln(stderr, "coplotbench:", err)
		return 1
	}

	code := 0
	t0 := time.Now()
	var spans []span
	for _, sp := range selected {
		rep, err := runWorkload(ctx, cfg, coplotd, filepath.Join(work, sp.name), sp, t0)
		if err != nil {
			fmt.Fprintf(stderr, "coplotbench: %s: %v\n", sp.name, err)
			return 1
		}
		if cfg.trace {
			spans = append(spans, rep.tracer.spans...)
			if rep.spansPath, err = writeSpans(cfg.out, spans); err != nil {
				fmt.Fprintln(stderr, "coplotbench:", err)
				return 1
			}
		}
		res := rep.print(stdout, cfg)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "coplotbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload sets up the workload's servers, runs its timed phase
// against the last one, checks the outputs and, with -trace, replays
// the sample in-process and layer by layer. Its scratch state lives
// under dir.
func runWorkload(ctx context.Context, cfg config, coplotd, dir string, sp spec, t0 time.Time) (*report, error) {
	w, err := sp.make(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("building the plan: %w", err)
	}
	rep := &report{spec: sp}
	var srv *server
	var setup []response
	for k := 0; k < cfg.setups; k++ {
		start := time.Now()
		s, resp, err := setUp(ctx, coplotd, filepath.Join(dir, fmt.Sprintf("cache-%d", k)), w)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(start).Seconds())
		if k < cfg.setups-1 {
			s.stop()
			continue
		}
		srv, setup = s, resp
	}
	err = rep.measure(ctx, cfg, w, srv, setup, filepath.Join(dir, "check"))
	srv.stop()
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		sample := sp.sample
		if cfg.limit > 0 && sample > cfg.limit {
			sample = cfg.limit
		}
		rep.tracer = newTracer(t0)
		if err := replay(ctx, coplotd, dir, sp, w, rep, setup, sample); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure runs the timed phase against the set-up server s, whose
// set-up answers were setup, then checks its outputs with s still up;
// the replica state of the check lives under dir.
func (rep *report) measure(ctx context.Context, cfg config, w mix, s *server, setup []response, dir string) error {
	sp := rep.spec
	before, err := s.storage(ctx)
	if err != nil {
		return err
	}
	rss := s.watchRSS()
	if sp.open {
		n := int(feedRate * cfg.seconds)
		if cfg.limit > 0 && n > cfg.limit {
			n = cfg.limit
		}
		rep.ph, err = openLoop(ctx, s.client, w.request, feedRate, n, sp.verify)
	} else {
		rep.ph, err = closedLoop(ctx, s.client, w.request, time.Duration(cfg.seconds*float64(time.Second)), cfg.limit, sp.verify)
	}
	samples, rssErr := rss()
	if err != nil {
		return err
	}
	if rssErr != nil {
		return rssErr
	}
	rep.rss = median(samples)
	if rep.hwm, err = s.memory("VmHWM"); err != nil {
		return err
	}
	after, err := s.storage(ctx)
	if err != nil {
		return err
	}
	rep.store = storeDelta(before, after)
	if err := w.replica(nil, dir, setup); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	rep.digest, rep.checkErr = w.check(ctx, checkInput{ph: rep.ph, setup: setup, client: s.client, verify: sp.verify})
	return nil
}

// setUp starts a server on the fresh cache directory cacheDir and sends
// the workload's set-up requests in order, keeping the answers; any
// failure fails the set-up and stops the server.
func setUp(ctx context.Context, coplotd, cacheDir string, w mix) (*server, []response, error) {
	s, err := startServer(ctx, coplotd, cacheDir)
	if err != nil {
		return nil, nil, err
	}
	reqs := w.setup()
	out := make([]response, len(reqs))
	for j, r := range reqs {
		body, _, _, header, err := send(ctx, s.client, r)
		if err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("set-up %s %s: %w", r.method, r.path, err)
		}
		out[j] = response{body: body, header: header}
	}
	return s, out, nil
}
