package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the profiling switches every CLI shares: file-based CPU
// and heap profiles, and an optional live net/http/pprof endpoint.
// Register the flags, then bracket the work with Start and the stop
// function it returns.
type Profile struct {
	// CPUPath receives a CPU profile covering Start..stop ("" = off).
	CPUPath string
	// MemPath receives a heap profile taken at stop ("" = off).
	MemPath string
	// Addr serves net/http/pprof on this listen address ("" = off).
	Addr string

	bound string // actual listen address once the server is up
}

// RegisterFlags wires the standard -cpuprofile/-memprofile/-pprof
// flags onto fs (pass flag.CommandLine for the global set).
func (p *Profile) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemPath, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.Addr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Start begins the configured profiling and returns the function that
// ends it: stopping the CPU profile, writing the heap profile, and
// closing the pprof listener. With no switches set both Start and stop
// are no-ops. Errors during stop are returned by the stop function;
// errors during Start leave nothing running.
func (p *Profile) Start() (stop func() error, err error) {
	var cpu *os.File
	var ln net.Listener
	cleanup := func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if ln != nil {
			ln.Close()
		}
	}
	if p.CPUPath != "" {
		cpu, err = os.Create(p.CPUPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if p.Addr != "" {
		ln, err = net.Listen("tcp", p.Addr)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("pprof listener: %w", err)
		}
		p.bound = ln.Addr().String()
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln) // exits when stop closes the listener
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
			cpu = nil
		}
		if ln != nil {
			ln.Close()
			ln = nil
		}
		if p.MemPath != "" {
			f, err := os.Create(p.MemPath)
			if err != nil {
				return err
			}
			runtime.GC() // materialize recently freed objects in the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
