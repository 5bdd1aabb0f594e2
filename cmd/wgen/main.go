// Command wgen generates a synthetic workload in Standard Workload
// Format, either from one of the five published models or from a
// calibrated production-site generator.
//
// Usage:
//
//	wgen -model feitelson96|feitelson97|downey|jann|lublin|session [-procs N] [-n N] [-seed N] [-o FILE]
//	wgen -model ss-lublin      # any model prefixed "ss-" gets the §9 self-similarity injection
//	wgen -site CTC|KTH|LANL|LANLi|LANLb|LLNL|NASA|SDSC|SDSCi|SDSCb|L1..L4|S1..S4 [-n N] [-seed N] [-o FILE]
//	wgen -clone FILE.swf [-procs N]  # measure an existing log and generate a synthetic twin
//	wgen -model lublin -simulate     # run the stream through the site scheduler
//	wgen -spec FILE [-site NAME]     # generate from a user-written spec table (sites.ParseSpecs)
//	wgen -dump-specs                 # export the built-in calibrations as a spec table
//
// A spec table (see internal/sites ParseSpecs) is a '#'-commented
// whitespace table with one calibrated observation per line; -site
// selects an observation by name when the file holds several, and the
// table's own jobs column overrides -n.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coplot/internal/machine"
	"coplot/internal/rng"
	"coplot/internal/sched"
	"coplot/internal/service"
	"coplot/internal/sites"
	"coplot/internal/swf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "", "synthetic model to run")
	site := fs.String("site", "", "calibrated production-site generator to run")
	clone := fs.String("clone", "", "SWF log to measure and clone")
	spec := fs.String("spec", "", "spec-table file of calibrated observations to generate from")
	dumpSpecs := fs.Bool("dump-specs", false, "print the built-in calibrations as a spec table and exit")
	procs := fs.Int("procs", 128, "machine size for -model")
	n := fs.Int("n", 10000, "number of jobs")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	simulate := fs.Bool("simulate", false, "replay the stream through the machine's scheduler to obtain wait times")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dumpSpecs {
		fmt.Fprint(stdout, sites.FormatSpecs(append(sites.Table1Specs(*n), sites.Table2Specs(*n)...)))
		return 0
	}
	log, m, err := generate(*model, *site, *clone, *spec, *procs, *n, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "wgen:", err)
		return 1
	}
	if *simulate {
		log, err = replay(log, m)
		if err != nil {
			fmt.Fprintln(stderr, "wgen:", err)
			return 1
		}
	}

	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "wgen:", err)
			return 1
		}
		defer f.Close() // error paths only; closing twice is harmless
		w = f
	}
	if err := swf.Write(w, log); err != nil {
		fmt.Fprintln(stderr, "wgen:", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "wgen:", err)
			return 1
		}
	}
	return 0
}

func generate(model, site, clone, spec string, procs, n int, seed uint64) (*swf.Log, machine.Machine, error) {
	selected := 0
	for _, s := range []string{model, clone, spec} {
		if s != "" {
			selected++
		}
	}
	if site != "" && spec == "" {
		selected++
	}
	if selected > 1 {
		return nil, machine.Machine{}, fmt.Errorf("choose exactly one of -model, -site, -clone or -spec")
	}
	switch {
	case spec != "":
		return fromSpecFile(spec, site, seed)
	case clone != "":
		return cloneLog(clone, procs, n, seed)
	case model != "":
		// The shared serving-layer resolver handles the model names and
		// the "ss-" self-similarity prefix (section 9 extension), so
		// wgen and the /v1/generate endpoint accept the same names.
		gen, err := service.ModelByName(model, procs)
		if err != nil {
			return nil, machine.Machine{}, err
		}
		m := machine.Machine{Name: "synthetic", Procs: procs,
			Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
		return gen.Generate(rng.New(seed), n), m, nil
	case site != "":
		for _, spec := range append(sites.Table1Specs(n), sites.Table2Specs(n)...) {
			if spec.Name == site {
				spec.Jobs = n
				log, err := spec.Generate(seed)
				return log, spec.Machine, err
			}
		}
		return nil, machine.Machine{}, fmt.Errorf("unknown site %q", site)
	}
	return nil, machine.Machine{}, fmt.Errorf("one of -model, -site or -clone is required")
}

// fromSpecFile generates from a user-written spec table: the -site name
// selects an observation when the file holds several, a single-spec file
// needs no selector. The table's jobs column wins over -n, so a file is
// a complete, reproducible description of its logs.
func fromSpecFile(path, site string, seed uint64) (*swf.Log, machine.Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, machine.Machine{}, err
	}
	defer f.Close()
	specs, err := sites.ParseSpecs(f)
	if err != nil {
		return nil, machine.Machine{}, fmt.Errorf("%s: %v", path, err)
	}
	var chosen *sites.Spec
	switch {
	case site != "":
		for i := range specs {
			if specs[i].Name == site {
				chosen = &specs[i]
				break
			}
		}
		if chosen == nil {
			return nil, machine.Machine{}, fmt.Errorf("%s: no observation %q (have %s)", path, site, specNames(specs))
		}
	case len(specs) == 1:
		chosen = &specs[0]
	default:
		return nil, machine.Machine{}, fmt.Errorf("%s holds %d observations; select one with -site (have %s)", path, len(specs), specNames(specs))
	}
	log, err := chosen.Generate(seed)
	return log, chosen.Machine, err
}

func specNames(specs []sites.Spec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// cloneLog measures an existing log and generates a synthetic twin.
func cloneLog(path string, procs, n int, seed uint64) (*swf.Log, machine.Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, machine.Machine{}, err
	}
	defer f.Close()
	src, err := swf.Parse(f)
	if err != nil {
		return nil, machine.Machine{}, fmt.Errorf("%s: %v", path, err)
	}
	m := machine.Machine{Name: "clone", Procs: procs,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	spec, err := sites.SpecFromLog("clone", src, m, n)
	if err != nil {
		return nil, machine.Machine{}, err
	}
	out, err := spec.Generate(seed)
	return out, m, err
}

// replay pushes the pure job stream through the machine's scheduler so
// the output log carries realistic wait times and allocation rounding.
func replay(log *swf.Log, m machine.Machine) (*swf.Log, error) {
	opts := sched.Options{}
	if m.Allocator == machine.AllocatorPow2 && m.Procs >= 1024 {
		opts.MinPartition = 32
	}
	out, _, err := sched.ReplayLog(log, m, opts)
	return out, err
}
