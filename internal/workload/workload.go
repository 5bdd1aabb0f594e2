// Package workload computes the observation variables of the paper's
// section 3 from an SWF log and its machine description: the 18 entries
// of Table 1 (machine size, scheduler and allocator flexibility, loads,
// normalized users/executables, completion rate, and the median and 90%
// interval of runtimes, parallelism, normalized parallelism, total CPU
// work, and inter-arrival times).
//
// Order statistics are used throughout instead of moments, following the
// paper's observation that the average and CV of these long-tailed
// distributions are unstable (removing the 0.1% most extreme jobs can
// shift the CV by 40%).
package workload

import (
	"fmt"
	"math"
	"slices"

	"coplot/internal/machine"
	"coplot/internal/stats"
	"coplot/internal/swf"
)

// Variable codes in Table 1 order.
const (
	VarMachineProcs     = "MP"
	VarSchedulerFlex    = "SF"
	VarAllocatorFlex    = "AL"
	VarRuntimeLoad      = "RL"
	VarCPULoad          = "CL"
	VarNormExecutables  = "E"
	VarNormUsers        = "U"
	VarCompleted        = "C"
	VarRuntimeMedian    = "Rm"
	VarRuntimeInterval  = "Ri"
	VarProcsMedian      = "Pm"
	VarProcsInterval    = "Pi"
	VarNormProcsMedian  = "Nm"
	VarNormProcsIntvl   = "Ni"
	VarWorkMedian       = "Cm"
	VarWorkInterval     = "Ci"
	VarInterArrMedian   = "Im"
	VarInterArrInterval = "Ii"
)

// AllVariables lists every variable code in Table 1 order.
var AllVariables = []string{
	VarMachineProcs, VarSchedulerFlex, VarAllocatorFlex,
	VarRuntimeLoad, VarCPULoad, VarNormExecutables, VarNormUsers,
	VarCompleted, VarRuntimeMedian, VarRuntimeInterval,
	VarProcsMedian, VarProcsInterval, VarNormProcsMedian, VarNormProcsIntvl,
	VarWorkMedian, VarWorkInterval, VarInterArrMedian, VarInterArrInterval,
}

// DatasetVars is the log-derived subset of Table 1 an SWF analysis
// maps: the machine-configuration variables are uniform across one
// request's inputs and excluded. cmd/coplot, the /v1/analyze handler
// and the streaming layer all build their Co-plot datasets from this
// list, which is what keeps their embeddings comparable.
var DatasetVars = []string{
	VarRuntimeLoad,
	VarRuntimeMedian, VarRuntimeInterval,
	VarProcsMedian, VarProcsInterval,
	VarWorkMedian, VarWorkInterval,
	VarInterArrMedian, VarInterArrInterval,
}

// Variables holds one observation row: a workload characterized by the
// Table 1 variables. Missing values are NaN.
type Variables struct {
	Name   string
	Values map[string]float64
}

// Get returns the value of a variable code (NaN if absent).
func (v Variables) Get(code string) float64 {
	if val, ok := v.Values[code]; ok {
		return val
	}
	return math.NaN()
}

// NormalizedParallelismBase is the reference machine size for the
// normalized degree of parallelism: the paper treats every job "as if
// they requested from a 128-node machine".
const NormalizedParallelismBase = 128

// Compute derives all Table 1 variables from a log. It applies the
// paper's missing-value rules: if CPU times are absent the runtime load
// substitutes for the CPU load (and vice versa), and total work falls
// back to runtime × parallelism.
func Compute(name string, log *swf.Log, m machine.Machine) (Variables, error) {
	if err := m.Validate(); err != nil {
		return Variables{}, err
	}
	if len(log.Jobs) == 0 {
		return Variables{}, fmt.Errorf("workload %q: empty log", name)
	}
	v := Variables{Name: name, Values: make(map[string]float64, len(AllVariables))}
	v.Values[VarMachineProcs] = float64(m.Procs)
	v.Values[VarSchedulerFlex] = float64(m.Scheduler.Flexibility())
	v.Values[VarAllocatorFlex] = float64(m.Allocator.Flexibility())

	n := len(log.Jobs)
	runtimes := make([]float64, 0, n)
	procs := make([]float64, 0, n)
	normProcs := make([]float64, 0, n)
	works := make([]float64, 0, n)
	users := make([]int, 0, n)
	execs := make([]int, 0, n)
	completed, haveStatus := 0, 0
	var runtimeWork, cpuWork float64
	haveCPU := true
	for i := range log.Jobs {
		j := &log.Jobs[i]
		if j.Runtime >= 0 {
			runtimes = append(runtimes, j.Runtime)
		}
		if j.Procs > 0 {
			procs = append(procs, float64(j.Procs))
			normProcs = append(normProcs, float64(j.Procs)/float64(m.Procs)*NormalizedParallelismBase)
		}
		if w := j.TotalWork(); w >= 0 {
			runtimeWork += w
		}
		// Total CPU work prefers recorded CPU times; runtime × parallelism
		// is the paper's substitute when they are missing (rule 3).
		if j.CPUTime >= 0 && j.Procs > 0 {
			w := j.CPUTime * float64(j.Procs)
			works = append(works, w)
			cpuWork += w
		} else {
			haveCPU = false
			if w := j.TotalWork(); w >= 0 {
				works = append(works, w)
			}
		}
		users = append(users, j.User)
		if j.Executable >= 0 {
			execs = append(execs, j.Executable)
		}
		if j.Status >= 0 {
			haveStatus++
			if j.Status == swf.StatusCompleted {
				completed++
			}
		}
	}

	duration := log.Duration()
	capacity := duration * float64(m.Procs)
	if capacity > 0 {
		v.Values[VarRuntimeLoad] = runtimeWork / capacity
		if haveCPU {
			v.Values[VarCPULoad] = cpuWork / capacity
		} else {
			// Missing-value rule 1: substitute the runtime load.
			v.Values[VarCPULoad] = runtimeWork / capacity
		}
	} else {
		v.Values[VarRuntimeLoad] = math.NaN()
		v.Values[VarCPULoad] = math.NaN()
	}

	if len(execs) > 0 {
		v.Values[VarNormExecutables] = float64(distinct(execs)) / float64(n)
	} else {
		v.Values[VarNormExecutables] = math.NaN()
	}
	v.Values[VarNormUsers] = float64(distinct(users)) / float64(n)
	if haveStatus > 0 {
		v.Values[VarCompleted] = float64(completed) / float64(haveStatus)
	} else {
		v.Values[VarCompleted] = math.NaN()
	}

	setMI := func(codeM, codeI string, xs []float64) {
		if len(xs) == 0 {
			v.Values[codeM] = math.NaN()
			v.Values[codeI] = math.NaN()
			return
		}
		m, iv := stats.MedianAndInterval(xs, 0.9)
		v.Values[codeM] = m
		v.Values[codeI] = iv
	}
	setMI(VarRuntimeMedian, VarRuntimeInterval, runtimes)
	setMI(VarProcsMedian, VarProcsInterval, procs)
	setMI(VarNormProcsMedian, VarNormProcsIntvl, normProcs)
	setMI(VarWorkMedian, VarWorkInterval, works)
	setMI(VarInterArrMedian, VarInterArrInterval, log.InterArrivals())
	return v, nil
}

// distinct returns the number of distinct values in xs, which it sorts.
func distinct(xs []int) int {
	slices.Sort(xs)
	return len(slices.Compact(xs))
}

// Table collects observation rows into the labeled matrix form consumed
// by the Co-plot core. Variables missing (NaN) in some observation are
// substituted by the column mean of the remaining observations, a
// conservative choice that leaves the normalized value at zero.
type Table struct {
	Observations []string
	Codes        []string
	Data         [][]float64 // [observation][variable]
}

// BuildTable assembles a Table restricted to the requested variable
// codes; codes absent from every observation produce an error.
func BuildTable(rows []Variables, codes []string) (*Table, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: no observations")
	}
	t := &Table{Codes: append([]string(nil), codes...)}
	for _, r := range rows {
		t.Observations = append(t.Observations, r.Name)
		vals := make([]float64, len(codes))
		for i, c := range codes {
			vals[i] = r.Get(c)
		}
		t.Data = append(t.Data, vals)
	}
	// Column-mean substitution for missing values.
	for j := range codes {
		var sum float64
		var cnt int
		for i := range t.Data {
			if !math.IsNaN(t.Data[i][j]) {
				sum += t.Data[i][j]
				cnt++
			}
		}
		if cnt == 0 {
			return nil, fmt.Errorf("workload: variable %q missing from every observation", codes[j])
		}
		mean := sum / float64(cnt)
		for i := range t.Data {
			if math.IsNaN(t.Data[i][j]) {
				t.Data[i][j] = mean
			}
		}
	}
	return t, nil
}

// Column returns the values of one variable across observations.
func (t *Table) Column(code string) ([]float64, error) {
	for j, c := range t.Codes {
		if c == code {
			out := make([]float64, len(t.Data))
			for i := range t.Data {
				out[i] = t.Data[i][j]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("workload: no variable %q in table", code)
}
