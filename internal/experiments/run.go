package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coplot/internal/engine"
	"coplot/internal/faultinject"
	"coplot/internal/par"
)

// Output is one experiment's rendered artifacts.
type Output struct {
	Name   string
	Text   string
	SVG    string // empty for data tables
	Checks []Check
}

// registry holds the runnable experiments: the paper's tables and
// figures in order, then the extension studies. Dependency edges record
// which experiments consume another experiment's result (the shared
// artifact store additionally dedups sub-artifacts like the generated
// site and model logs). Registration order is the paper order used for
// listings and deterministic output.
var registry = engine.NewRegistry[*Env]()

// experiment wraps a typed experiment function as an engine run func.
func experiment(fn func(context.Context, *Env) (*Output, error)) engine.RunFunc[*Env] {
	return func(ctx context.Context, env *Env) (any, error) {
		o, err := fn(ctx, env)
		if err != nil {
			return nil, err
		}
		return o, nil
	}
}

func init() {
	reg := func(name string, deps []string, fn func(context.Context, *Env) (*Output, error)) {
		registry.MustRegister(name, deps, experiment(fn))
	}
	reg("table1", nil, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "table1", Text: r.Text + "\n" + renderChecks(r.Checks), Checks: r.Checks}, nil
	})
	reg("fig1", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		t1, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := figure1From(env.Cfg, t1)
		return figOutput("fig1", fig, err)
	})
	reg("fig2", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		t1, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := figure2From(env.Cfg, t1)
		return figOutput("fig2", fig, err)
	})
	reg("table2", nil, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := Table2(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "table2", Text: r.Text + "\n" + renderChecks(r.Checks), Checks: r.Checks}, nil
	})
	reg("fig3", []string{"table1", "table2"}, func(ctx context.Context, env *Env) (*Output, error) {
		t1, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		t2, err := Table2(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := figure3From(env.Cfg, t1, t2)
		return figOutput("fig3", fig, err)
	})
	reg("fig4", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		t1, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := figure4From(ctx, env, t1)
		return figOutput("fig4", fig, err)
	})
	reg("params3", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		t1, err := Table1(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := params3From(env.Cfg, t1)
		return figOutput("params3", fig, err)
	})
	reg("table3", nil, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := Table3(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "table3", Text: r.Text, Checks: r.Checks}, nil
	})
	reg("fig5", []string{"table3"}, func(ctx context.Context, env *Env) (*Output, error) {
		t3, err := Table3(ctx, env)
		if err != nil {
			return nil, err
		}
		fig, err := figure5From(env.Cfg, t3)
		return figOutput("fig5", fig, err)
	})
	reg("paper", nil, PaperFigures)
	reg("table3ci", nil, Table3CI)
	reg("seeds", nil, func(ctx context.Context, env *Env) (*Output, error) {
		return SeedSweep(ctx, env, nil)
	})
	reg("moments", nil, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := MomentStability(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "moments", Text: r.Text, Checks: r.Checks}, nil
	})
	reg("stability", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := MapStability(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "stability", Text: r.Text, Checks: r.Checks}, nil
	})
	reg("loadscale", nil, func(ctx context.Context, env *Env) (*Output, error) {
		r, err := LoadScalingStudy(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Output{Name: "loadscale", Text: r.Text, Checks: r.Checks}, nil
	})
	reg("parametric", []string{"table1"}, func(ctx context.Context, env *Env) (*Output, error) {
		fig, err := ParametricRoundTrip(ctx, env)
		return figOutput("parametric", fig, err)
	})
	reg("selfsim-models", nil, SelfSimilarModels)
	if err := registry.Validate(); err != nil {
		panic(err)
	}
}

// Names lists the runnable experiments in paper order.
func Names() []string { return registry.Names() }

// Deps exposes the dependency edges of one experiment.
func Deps(name string) ([]string, error) { return registry.Deps(name) }

// RunOptions configure engine execution: the engine's run options
// (cmd/experiments binds them with engine.Options.RegisterFlags) plus
// the suite's fault injection. Jobs also sizes the shared kernel
// worker budget (Config.Par) the SSA multi-starts and Hurst estimator
// fan-outs draw from; any value produces byte-identical outputs.
// Observability (Sink) never alters the outputs.
type RunOptions struct {
	engine.Options
	// Inject is an optional fault-injection schedule spliced around the
	// registered experiments (nil = no injection). Used by tests and
	// the -inject CLI flag to exercise failure paths deterministically.
	Inject *faultinject.Schedule
}

// Run executes one named experiment — and, first, its dependencies —
// against a fresh environment.
func Run(ctx context.Context, name string, cfg Config, opts RunOptions) (*Output, error) {
	if !registry.Has(name) {
		return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
	}
	outs, err := runNames(ctx, []string{name}, cfg, opts)
	if len(outs) == 0 {
		if err == nil {
			err = fmt.Errorf("experiments: %s produced no output", name)
		}
		return nil, err
	}
	return outs[0], err
}

// RunNames executes the named experiments — and, first, their
// dependencies — over one shared environment, returning the completed
// outputs in request order. Under RunOptions.KeepGoing a failure
// degrades rather than aborts: the completed outputs come back
// alongside an *engine.DegradedError naming the failed experiments and
// their skipped dependents.
func RunNames(ctx context.Context, names []string, cfg Config, opts RunOptions) ([]*Output, error) {
	for _, name := range names {
		if !registry.Has(name) {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
		}
	}
	return runNames(ctx, names, cfg, opts)
}

// RunAll executes every experiment once over one shared environment, so
// the figures and tables derive each upstream artifact exactly once.
// Results come back in paper order regardless of completion order. The
// seed sweep is excluded (it re-runs the headline experiments several
// times; invoke it explicitly).
func RunAll(ctx context.Context, cfg Config, opts RunOptions) ([]*Output, error) {
	var names []string
	for _, n := range registry.Names() {
		if n != "seeds" {
			names = append(names, n)
		}
	}
	return runNames(ctx, names, cfg, opts)
}

func runNames(ctx context.Context, names []string, cfg Config, opts RunOptions) ([]*Output, error) {
	env := newEnv(cfg, opts.Sink)
	if env.Cfg.Par == nil {
		// One kernel worker budget per run, sized like the DAG pool:
		// every experiment's SSA multi-starts, estimator fan-outs and
		// blocked matrix loops share it, so -jobs bounds the run's
		// compute parallelism instead of multiplying per layer.
		env.Cfg.Par = par.NewBudget(opts.Jobs)
	}
	reg := registry
	if opts.Inject.Enabled() {
		reg = faultinject.Wrap(opts.Inject, registry)
	}
	results, err := engine.Run(ctx, reg, names, env, opts.Options)
	var deg *engine.DegradedError
	if err != nil && !errors.As(err, &deg) {
		return nil, err
	}
	// A degraded keep-going run still returns every completed output;
	// failed and skipped experiments are absent, recorded in deg.
	var outs []*Output
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		o, ok := r.Value.(*Output)
		if !ok {
			return nil, fmt.Errorf("experiments: %s produced %T, want *Output", r.Name, r.Value)
		}
		outs = append(outs, o)
	}
	if deg != nil {
		return outs, deg
	}
	return outs, nil
}

func figOutput(name string, fig *FigureResult, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	return &Output{Name: name, Text: fig.Text, SVG: fig.SVG, Checks: fig.Checks}, nil
}

// WriteOutputs saves text (and SVG, when present) artifacts under dir.
func WriteOutputs(dir string, outs []*Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range outs {
		if err := os.WriteFile(filepath.Join(dir, o.Name+".txt"), []byte(o.Text), 0o644); err != nil {
			return err
		}
		if o.SVG != "" {
			if err := os.WriteFile(filepath.Join(dir, o.Name+".svg"), []byte(o.SVG), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary aggregates pass/fail counts per experiment.
func Summary(outs []*Output) string {
	var b strings.Builder
	total, passed := 0, 0
	names := make([]string, 0, len(outs))
	for _, o := range outs {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	for _, o := range outs {
		p := 0
		for _, c := range o.Checks {
			total++
			if c.Pass {
				p++
				passed++
			}
		}
		fmt.Fprintf(&b, "%-8s %d/%d checks preserved\n", o.Name, p, len(o.Checks))
	}
	fmt.Fprintf(&b, "TOTAL    %d/%d\n", passed, total)
	return b.String()
}
