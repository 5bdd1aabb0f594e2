// Command swfcheck audits SWF workload logs for the validity problems
// the paper's introduction warns about: jobs exceeding the system's
// limits, undocumented downtime, dedication of the machine to single
// users, and corrupt records. Exit status 1 means at least one
// error-severity issue was found.
//
// Usage:
//
//	swfcheck [-procs N] [-sched nqs|easy|gang] [-alloc pow2|limited|unlimited]
//	         [-downtime-factor F] [-top-user F] FILE.swf...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"coplot/internal/experiments"
	"coplot/internal/machine"
	"coplot/internal/service"
	"coplot/internal/swf"
	"coplot/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swfcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 128, "number of processors in the machine")
	schedName := fs.String("sched", "easy", "scheduler: nqs, easy or gang")
	allocName := fs.String("alloc", "unlimited", "allocator: pow2, limited or unlimited")
	downtime := fs.Float64("downtime-factor", 0, "gap threshold as multiple of the p99 gap (0 = default)")
	topUser := fs.Float64("top-user", 0, "warn when one user exceeds this job fraction (0 = default)")
	homogeneity := fs.Int("homogeneity", 0, "split the log into N periods and run the section-6 Co-plot audit (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "swfcheck: no input files")
		return 2
	}

	m, err := service.ParseMachine("cli", *procs, *schedName, *allocName)
	if err != nil {
		fmt.Fprintln(stderr, "swfcheck:", err)
		return 2
	}
	opts := validate.Options{DowntimeFactor: *downtime, TopUserWarn: *topUser}

	exit := 0
	for _, path := range fs.Args() {
		errs, err := checkFile(stdout, path, m, opts, *homogeneity)
		if err != nil {
			fmt.Fprintf(stderr, "swfcheck: %s: %v\n", path, err)
			exit = 2
			continue
		}
		if errs > 0 && exit == 0 {
			exit = 1
		}
	}
	return exit
}

func checkFile(w io.Writer, path string, m machine.Machine, opts validate.Options, homogeneity int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	log, err := swf.Parse(f)
	if err != nil {
		return 0, err
	}
	// The shared serving-layer renderer keeps swfcheck output and the
	// /v1/validate endpoint byte-identical (and sorts the capped-code
	// notes, which the old inline loop printed in map order).
	text, errs := service.ValidateReport(path, log, m, opts)
	fmt.Fprint(w, text)
	if homogeneity > 1 {
		env := experiments.NewEnv(experiments.Config{})
		res, err := experiments.Homogeneity(context.Background(), env, log, m, homogeneity)
		if err != nil {
			return errs, err
		}
		fmt.Fprint(w, res.Text)
	}
	return errs, nil
}
