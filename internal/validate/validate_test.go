package validate

import (
	"testing"

	"coplot/internal/machine"
	"coplot/internal/models"
	"coplot/internal/rng"
	"coplot/internal/sites"
	"coplot/internal/swf"
)

func m128() machine.Machine {
	return machine.Machine{Name: "t", Procs: 128,
		Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited}
}

func cleanJob(id int, submit float64) swf.Job {
	return swf.Job{ID: id, Submit: submit, Wait: 0, Runtime: 10, Procs: 2,
		CPUTime: 8, Memory: -1, ReqProcs: 2, ReqTime: 20, ReqMemory: -1,
		Status: swf.StatusCompleted, User: 1 + id%5, Group: 1, Executable: 1,
		Queue: swf.QueueBatch, Partition: -1, PrecedingID: -1, ThinkTime: -1}
}

func TestCleanLogPasses(t *testing.T) {
	log := &swf.Log{}
	for i := 0; i < 100; i++ {
		log.Jobs = append(log.Jobs, cleanJob(i+1, float64(i*30)))
	}
	rep := Check(log, m128(), Options{})
	if rep.Errors() != 0 {
		t.Fatalf("clean log produced errors: %+v", rep.Issues)
	}
}

func TestEmptyLog(t *testing.T) {
	rep := Check(&swf.Log{}, m128(), Options{})
	if rep.Counts["empty-log"] != 1 {
		t.Fatalf("empty log not flagged: %v", rep.Counts)
	}
}

func TestDetectsDuplicateIDs(t *testing.T) {
	log := &swf.Log{Jobs: []swf.Job{cleanJob(1, 0), cleanJob(1, 10), cleanJob(2, 20)}}
	rep := Check(log, m128(), Options{})
	if rep.Counts["duplicate-id"] != 1 {
		t.Fatalf("duplicates not flagged: %v", rep.Counts)
	}
}

func TestDetectsOversizedJob(t *testing.T) {
	j := cleanJob(1, 0)
	j.Procs = 500 // on a 128-processor machine
	log := &swf.Log{Jobs: []swf.Job{j, cleanJob(2, 10), cleanJob(3, 20)}}
	rep := Check(log, m128(), Options{})
	if rep.Counts["oversized-job"] != 1 {
		t.Fatalf("oversized job not flagged: %v", rep.Counts)
	}
	if rep.Errors() == 0 {
		t.Fatal("oversized job should be an error")
	}
}

func TestDetectsImpossibleFields(t *testing.T) {
	bad1 := cleanJob(1, 0)
	bad1.Runtime = -5
	bad2 := cleanJob(2, 5)
	bad2.CPUTime = 50 // runtime is 10
	bad3 := cleanJob(3, 10)
	bad3.Wait = -3
	bad4 := cleanJob(4, 15)
	bad4.Status = 9
	bad5 := cleanJob(5, 20)
	bad5.Procs = 0
	log := &swf.Log{Jobs: []swf.Job{bad1, bad2, bad3, bad4, bad5}}
	rep := Check(log, m128(), Options{})
	for _, code := range []string{"bad-runtime", "cpu-exceeds-runtime", "negative-wait", "bad-status", "bad-procs"} {
		if rep.Counts[code] == 0 {
			t.Fatalf("%s not flagged: %v", code, rep.Counts)
		}
	}
}

func TestDetectsOverCapacity(t *testing.T) {
	// Two simultaneous 100-proc jobs on a 128-proc machine. A positive
	// wait marks the log as executed, activating the capacity sweep.
	j1 := cleanJob(1, 0)
	j1.Procs = 100
	j1.Runtime = 100
	j2 := cleanJob(2, 10)
	j2.Procs = 100
	j2.Runtime = 100
	j2.Wait = 1
	log := &swf.Log{Jobs: []swf.Job{j1, j2}}
	rep := Check(log, m128(), Options{})
	if rep.Counts["over-capacity"] != 1 {
		t.Fatalf("over-capacity not flagged: %v", rep.Counts)
	}
	// Sequential versions of the same jobs are fine.
	j2.Submit = 200
	log2 := &swf.Log{Jobs: []swf.Job{j1, j2}}
	rep2 := Check(log2, m128(), Options{})
	if rep2.Counts["over-capacity"] != 0 {
		t.Fatal("sequential jobs flagged as over capacity")
	}
}

func TestDetectsDowntime(t *testing.T) {
	log := &swf.Log{}
	clock := 0.0
	for i := 0; i < 200; i++ {
		clock += 30
		if i == 100 {
			clock += 1e6 // a 12-day hole
		}
		log.Jobs = append(log.Jobs, cleanJob(i+1, clock))
	}
	rep := Check(log, m128(), Options{})
	if rep.Counts["possible-downtime"] == 0 {
		t.Fatalf("downtime hole not flagged: %v", rep.Counts)
	}
}

func TestDetectsUserDedication(t *testing.T) {
	log := &swf.Log{}
	for i := 0; i < 100; i++ {
		j := cleanJob(i+1, float64(i*30))
		if i < 90 {
			j.User = 7
		}
		log.Jobs = append(log.Jobs, j)
	}
	rep := Check(log, m128(), Options{})
	if rep.Counts["user-dedication"] != 1 {
		t.Fatalf("dedication not flagged: %v", rep.Counts)
	}
}

func TestPrecedenceChecks(t *testing.T) {
	j1 := cleanJob(1, 0)
	j1.Runtime = 100
	j2 := cleanJob(2, 50) // submitted while its predecessor still runs
	j2.PrecedingID = 1
	j3 := cleanJob(3, 200)
	j3.PrecedingID = 99 // dangling
	log := &swf.Log{Jobs: []swf.Job{j1, j2, j3}}
	rep := Check(log, m128(), Options{})
	if rep.Counts["precedence-overlap"] != 1 {
		t.Fatalf("overlap not flagged: %v", rep.Counts)
	}
	if rep.Counts["dangling-precedence"] != 1 {
		t.Fatalf("dangling link not flagged: %v", rep.Counts)
	}
}

func TestIssueCap(t *testing.T) {
	log := &swf.Log{}
	for i := 0; i < 150; i++ {
		j := cleanJob(i+1, float64(i))
		j.Procs = 0
		log.Jobs = append(log.Jobs, j)
	}
	rep := Check(log, m128(), Options{})
	if rep.Counts["bad-procs"] != 150 {
		t.Fatalf("count = %d, want 150", rep.Counts["bad-procs"])
	}
	emitted := 0
	for _, i := range rep.Issues {
		if i.Code == "bad-procs" {
			emitted++
		}
	}
	if emitted != maxIssuesPerCode {
		t.Fatalf("emitted = %d, want capped at %d", emitted, maxIssuesPerCode)
	}
}

func TestGeneratedLogsAreClean(t *testing.T) {
	// Our own generators must produce logs that pass their machines'
	// audits (modulo downtime warnings from bursty LRD arrivals).
	spec := sites.Table1Specs(2000)[0] // CTC
	log, err := spec.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(log, spec.Machine, Options{})
	if rep.Errors() != 0 {
		t.Fatalf("CTC generator produced invalid log: %+v", rep.Issues[:minInt(5, len(rep.Issues))])
	}
	ml := models.NewLublin(128).Generate(rng.New(2), 2000)
	rep2 := Check(ml, m128(), Options{})
	if rep2.Errors() != 0 {
		t.Fatalf("Lublin model produced invalid log: %+v", rep2.Issues[:minInt(5, len(rep2.Issues))])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSeverityString(t *testing.T) {
	if Warning.String() != "WARN" || Error.String() != "ERROR" {
		t.Fatal("severity names wrong")
	}
}
