package workload

import (
	"math"
	"testing"

	"coplot/internal/machine"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/swf"
)

func testMachine() machine.Machine {
	return machine.Machine{Name: "T", Procs: 128, Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
}

func simpleLog() *swf.Log {
	// Three jobs submitted at 0, 100, 300; runtimes 50, 100, 150;
	// procs 2, 4, 8; CPU time 40, 80, 120; statuses completed,
	// completed, failed; two users; two executables.
	return &swf.Log{Jobs: []swf.Job{
		{ID: 1, Submit: 0, Runtime: 50, Procs: 2, CPUTime: 40, Status: 1, User: 1, Executable: 1},
		{ID: 2, Submit: 100, Runtime: 100, Procs: 4, CPUTime: 80, Status: 1, User: 2, Executable: 1},
		{ID: 3, Submit: 300, Runtime: 150, Procs: 8, CPUTime: 120, Status: 0, User: 1, Executable: 2},
	}}
}

func TestComputeBasicVariables(t *testing.T) {
	v, err := Compute("test", simpleLog(), testMachine())
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(VarMachineProcs) != 128 {
		t.Fatalf("MP = %v", v.Get(VarMachineProcs))
	}
	if v.Get(VarSchedulerFlex) != 2 || v.Get(VarAllocatorFlex) != 3 {
		t.Fatalf("SF=%v AL=%v", v.Get(VarSchedulerFlex), v.Get(VarAllocatorFlex))
	}
	// Duration = 300+150 = 450. Runtime work = 50*2+100*4+150*8 = 1700.
	wantRL := 1700.0 / (450 * 128)
	if math.Abs(v.Get(VarRuntimeLoad)-wantRL) > 1e-12 {
		t.Fatalf("RL = %v, want %v", v.Get(VarRuntimeLoad), wantRL)
	}
	// CPU work = 40*2+80*4+120*8 = 1360.
	wantCL := 1360.0 / (450 * 128)
	if math.Abs(v.Get(VarCPULoad)-wantCL) > 1e-12 {
		t.Fatalf("CL = %v, want %v", v.Get(VarCPULoad), wantCL)
	}
	// 2 users, 2 executables over 3 jobs.
	if math.Abs(v.Get(VarNormUsers)-2.0/3) > 1e-12 {
		t.Fatalf("U = %v", v.Get(VarNormUsers))
	}
	if math.Abs(v.Get(VarNormExecutables)-2.0/3) > 1e-12 {
		t.Fatalf("E = %v", v.Get(VarNormExecutables))
	}
	if math.Abs(v.Get(VarCompleted)-2.0/3) > 1e-12 {
		t.Fatalf("C = %v", v.Get(VarCompleted))
	}
	if v.Get(VarRuntimeMedian) != 100 {
		t.Fatalf("Rm = %v", v.Get(VarRuntimeMedian))
	}
	if v.Get(VarProcsMedian) != 4 {
		t.Fatalf("Pm = %v", v.Get(VarProcsMedian))
	}
	// Normalized procs: 4/128*128 = 4 on a 128-proc machine.
	if v.Get(VarNormProcsMedian) != 4 {
		t.Fatalf("Nm = %v", v.Get(VarNormProcsMedian))
	}
	// Works prefer CPU times: 40·2, 80·4, 120·8 → median 320.
	if v.Get(VarWorkMedian) != 320 {
		t.Fatalf("Cm = %v", v.Get(VarWorkMedian))
	}
	// Inter-arrivals: 100, 200 → median 150.
	if v.Get(VarInterArrMedian) != 150 {
		t.Fatalf("Im = %v", v.Get(VarInterArrMedian))
	}
}

func TestComputeNormalizedParallelismDecoupling(t *testing.T) {
	// Same job mix on a machine twice the size must halve the normalized
	// parallelism but keep the raw parallelism.
	log := simpleLog()
	small := testMachine()
	big := small
	big.Procs = 256
	vs, err := Compute("s", log, small)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := Compute("b", log, big)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Get(VarProcsMedian) != vb.Get(VarProcsMedian) {
		t.Fatal("raw parallelism changed with machine size")
	}
	if math.Abs(vb.Get(VarNormProcsMedian)*2-vs.Get(VarNormProcsMedian)) > 1e-12 {
		t.Fatalf("normalized parallelism: small=%v big=%v",
			vs.Get(VarNormProcsMedian), vb.Get(VarNormProcsMedian))
	}
}

func TestComputeMissingCPUFallsBackToRuntimeLoad(t *testing.T) {
	log := simpleLog()
	for i := range log.Jobs {
		log.Jobs[i].CPUTime = -1
	}
	v, err := Compute("nocpu", log, testMachine())
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(VarCPULoad) != v.Get(VarRuntimeLoad) {
		t.Fatalf("CL = %v, RL = %v; rule 1 not applied", v.Get(VarCPULoad), v.Get(VarRuntimeLoad))
	}
}

func TestComputeMissingExecutables(t *testing.T) {
	log := simpleLog()
	for i := range log.Jobs {
		log.Jobs[i].Executable = -1
	}
	v, err := Compute("noexec", log, testMachine())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v.Get(VarNormExecutables)) {
		t.Fatal("E should be NaN when executables are unknown")
	}
}

func TestComputeEmptyLog(t *testing.T) {
	if _, err := Compute("empty", &swf.Log{}, testMachine()); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestComputeInvalidMachine(t *testing.T) {
	bad := machine.Machine{Name: "bad", Procs: 0, Scheduler: machine.SchedulerNQS, Allocator: machine.AllocatorPow2}
	if _, err := Compute("x", simpleLog(), bad); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestGetUnknownCode(t *testing.T) {
	v, err := Compute("test", simpleLog(), testMachine())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v.Get("ZZ")) {
		t.Fatal("unknown code should be NaN")
	}
}

func TestBuildTableAndColumn(t *testing.T) {
	v1, _ := Compute("a", simpleLog(), testMachine())
	v2, _ := Compute("b", simpleLog(), testMachine())
	tab, err := BuildTable([]Variables{v1, v2}, []string{VarRuntimeMedian, VarProcsMedian})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Data) != 2 || len(tab.Data[0]) != 2 {
		t.Fatalf("table shape %dx%d", len(tab.Data), len(tab.Data[0]))
	}
	col, err := tab.Column(VarRuntimeMedian)
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 100 || col[1] != 100 {
		t.Fatalf("column = %v", col)
	}
	if _, err := tab.Column("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestBuildTableMeanSubstitution(t *testing.T) {
	v1 := Variables{Name: "a", Values: map[string]float64{"X": 10}}
	v2 := Variables{Name: "b", Values: map[string]float64{"X": math.NaN()}}
	v3 := Variables{Name: "c", Values: map[string]float64{"X": 20}}
	tab, err := BuildTable([]Variables{v1, v2, v3}, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Data[1][0] != 15 {
		t.Fatalf("substituted value = %v, want column mean 15", tab.Data[1][0])
	}
}

func TestBuildTableAllMissing(t *testing.T) {
	v1 := Variables{Name: "a", Values: map[string]float64{}}
	if _, err := BuildTable([]Variables{v1}, []string{"X"}); err == nil {
		t.Fatal("all-missing variable accepted")
	}
}

func TestBuildTableEmptyRows(t *testing.T) {
	if _, err := BuildTable(nil, []string{"X"}); err == nil {
		t.Fatal("no observations accepted")
	}
}

var computed Variables

// BenchmarkCompute characterizes a 2000-job Lublin log, the size of one
// analyze-archive input.
func BenchmarkCompute(b *testing.B) {
	log := models.NewLublin(128).Generate(rng.New(1), 2000)
	m := testMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := Compute("lublin", log, m)
		if err != nil {
			b.Fatal(err)
		}
		computed = v
	}
}
