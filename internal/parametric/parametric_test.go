package parametric

import (
	"math"
	"testing"

	"coplot/internal/machine"
	"coplot/internal/selfsim"
	"coplot/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	good := Params{AllocFlexibility: 2, ProcsMedian: 4, InterArrivalMedian: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{AllocFlexibility: 0, ProcsMedian: 4, InterArrivalMedian: 100},
		{AllocFlexibility: 4, ProcsMedian: 4, InterArrivalMedian: 100},
		{AllocFlexibility: 2, ProcsMedian: 0.5, InterArrivalMedian: 100},
		{AllocFlexibility: 2, ProcsMedian: 4, InterArrivalMedian: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

func TestNewRejectsTinyMachine(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Fatal("1-processor machine accepted")
	}
}

func TestPredictionInSampleAccuracy(t *testing.T) {
	// With 10 observations and 3 features the log-linear fit cannot be
	// exact, but in-sample predictions must land within an order of
	// magnitude on every derived median — the level of fidelity the
	// paper's correlations promise.
	m, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range trainingData {
		p, err := ParamsOf(row.name)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		for code, c := range map[string]struct{ got, want float64 }{
			"Rm": {pred.RuntimeMed, row.rm},
			"Cm": {pred.WorkMed, row.cm},
		} {
			ratio := c.got / c.want
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("%s %s: predicted %.0f vs published %.0f (ratio %.2f)",
					row.name, code, c.got, c.want, ratio)
			}
		}
	}
}

func TestPredictMonotoneInParallelism(t *testing.T) {
	// More parallel systems should be predicted to do more total work.
	m, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := m.Predict(Params{AllocFlexibility: 2, ProcsMedian: 2, InterArrivalMedian: 150})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.Predict(Params{AllocFlexibility: 2, ProcsMedian: 64, InterArrivalMedian: 150})
	if err != nil {
		t.Fatal(err)
	}
	if hi.ProcsIv <= lo.ProcsIv {
		t.Fatalf("parallelism interval not increasing: %v vs %v", hi.ProcsIv, lo.ProcsIv)
	}
}

func TestGenerateMatchesPrediction(t *testing.T) {
	m, err := New(512)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{AllocFlexibility: 3, ProcsMedian: 2, InterArrivalMedian: 64} // CTC-like
	pred, err := m.Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	log, err := m.Generate("ctc-like", p, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.Machine{Name: "ctc-like", Procs: 512,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
	v, err := workload.Compute("ctc-like", log, mach)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Get(workload.VarRuntimeMedian); math.Abs(got-pred.RuntimeMed)/pred.RuntimeMed > 0.2 {
		t.Fatalf("runtime median %v, predicted %v", got, pred.RuntimeMed)
	}
	if got := v.Get(workload.VarInterArrMedian); math.Abs(got-64)/64 > 0.15 {
		t.Fatalf("inter-arrival median %v, want 64", got)
	}
	if got := v.Get(workload.VarProcsMedian); math.Abs(got-2) > 1 {
		t.Fatalf("procs median %v, want ~2", got)
	}
}

func TestGeneratedWorkloadSelfSimilar(t *testing.T) {
	// The section-9 requirement: future models must carry
	// self-similarity. The parametric model does, by construction.
	m, err := New(512)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{AllocFlexibility: 2, ProcsMedian: 5, InterArrivalMedian: 170}
	log, err := m.Generate("sdsc-like", p, 16384, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := selfsim.SeriesFromLog(log)
	h, err := selfsim.VarianceTime(series[selfsim.SeriesInterArrival])
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.6 {
		t.Fatalf("arrival Hurst %v, want clearly above 0.5", h)
	}
}

func TestPow2FlexibilityProducesPartitions(t *testing.T) {
	m, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{AllocFlexibility: 1, ProcsMedian: 64, InterArrivalMedian: 162} // LANL-like
	log, err := m.Generate("lanl-like", p, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range log.Jobs {
		if j.Procs&(j.Procs-1) != 0 {
			t.Fatalf("allocation flexibility 1 produced non-pow2 size %d", j.Procs)
		}
	}
}

func TestParamsOfUnknown(t *testing.T) {
	if _, err := ParamsOf("XYZ"); err == nil {
		t.Fatal("unknown observation accepted")
	}
}

func BenchmarkGenerate(b *testing.B) {
	m, err := New(512)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{AllocFlexibility: 2, ProcsMedian: 5, InterArrivalMedian: 170}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate("bench", p, 4096, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
