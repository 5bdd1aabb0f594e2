package swf

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"coplot/internal/rng"
)

func sampleLog() *Log {
	return &Log{
		Header: []string{"Computer: Test SP2", "Processors: 128"},
		Jobs: []Job{
			{ID: 1, Submit: 0, Wait: 10, Runtime: 100, Procs: 4, CPUTime: 90,
				ReqProcs: 4, ReqTime: 120, Status: StatusCompleted, User: 1,
				Executable: 1, Queue: QueueBatch, Memory: -1, ReqMemory: -1,
				PrecedingID: -1, ThinkTime: -1},
			{ID: 2, Submit: 50, Wait: 0, Runtime: 20, Procs: 1, CPUTime: 18,
				ReqProcs: 1, ReqTime: 30, Status: StatusCompleted, User: 2,
				Executable: 2, Queue: QueueInteractive, Memory: -1, ReqMemory: -1,
				PrecedingID: -1, ThinkTime: -1},
			{ID: 3, Submit: 120, Wait: 5, Runtime: 200.5, Procs: 32, CPUTime: 190,
				ReqProcs: 32, ReqTime: 300, Status: StatusFailed, User: 1,
				Executable: 1, Queue: QueueBatch, Memory: -1, ReqMemory: -1,
				PrecedingID: -1, ThinkTime: -1},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 2 || got.Header[0] != "Computer: Test SP2" {
		t.Fatalf("header = %v", got.Header)
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(got.Jobs))
	}
	for i := range l.Jobs {
		if got.Jobs[i] != l.Jobs[i] {
			t.Fatalf("job %d round-trip mismatch:\n got %+v\nwant %+v", i, got.Jobs[i], l.Jobs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		l := &Log{}
		n := 1 + r.Intn(50)
		clock := 0.0
		for i := 0; i < n; i++ {
			clock += r.Exp() * 100
			l.Jobs = append(l.Jobs, Job{
				ID: i + 1, Submit: math.Round(clock*100) / 100,
				Wait:    float64(r.Intn(100)),
				Runtime: math.Round(r.Exp()*1000*100) / 100,
				Procs:   1 + r.Intn(64), CPUTime: -1, Memory: -1,
				ReqProcs: 1 + r.Intn(64), ReqTime: -1, ReqMemory: -1,
				Status: r.Intn(2), User: r.Intn(20), Group: r.Intn(5),
				Executable: r.Intn(30), Queue: 1 + r.Intn(2),
				Partition: -1, PrecedingID: -1, ThinkTime: -1,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, l); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		if len(got.Jobs) != len(l.Jobs) {
			return false
		}
		for i := range l.Jobs {
			if got.Jobs[i] != l.Jobs[i] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsShortLines(t *testing.T) {
	if _, err := Parse(strings.NewReader("1 2 3\n")); err == nil {
		t.Fatal("short line accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	line := "1 0 0 abc 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n"
	if _, err := Parse(strings.NewReader(line)); err == nil {
		t.Fatal("garbage field accepted")
	}
}

// TestParseOverLongLine pins the 1 MiB line limit: 2^20-1 bytes and a
// newline fill the scanner's buffer exactly and parse; one byte more
// fails with an error naming the line that still matches
// bufio.ErrTooLong.
func TestParseOverLongLine(t *testing.T) {
	job := "1 0 0 10 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n"
	header := func(n int) string { return ";" + strings.Repeat("x", n-1) + "\n" }
	l, err := Parse(strings.NewReader(job + header(1<<20-1) + job))
	if err != nil || len(l.Jobs) != 2 || len(l.Header[0]) != 1<<20-2 {
		t.Fatalf("line of 1 MiB - 1 bytes: err %v", err)
	}
	_, err = Parse(strings.NewReader(job + job + header(1<<20) + job))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of 1 MiB: err %v, want bufio.ErrTooLong", err)
	}
	if want := "swf: line 3: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("line of 1 MiB: err %q does not start with %q", err, want)
	}
}

func TestParseSkipsBlankAndComments(t *testing.T) {
	text := "; header one\n\n;another\n1 0 0 10 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n"
	l, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Header) != 2 || len(l.Jobs) != 1 {
		t.Fatalf("header=%v jobs=%d", l.Header, len(l.Jobs))
	}
}

func TestTotalWork(t *testing.T) {
	j := Job{Runtime: 100, Procs: 8}
	if j.TotalWork() != 800 {
		t.Fatalf("TotalWork = %v", j.TotalWork())
	}
	if (Job{Runtime: -1, Procs: 8}).TotalWork() != -1 {
		t.Fatal("missing runtime should give -1")
	}
}

func TestDuration(t *testing.T) {
	l := sampleLog()
	// Last end: job 3 at 120+5+200.5 = 325.5; first submit 0.
	if d := l.Duration(); math.Abs(d-325.5) > 1e-9 {
		t.Fatalf("Duration = %v", d)
	}
	if (&Log{}).Duration() != 0 {
		t.Fatal("empty log duration should be 0")
	}
}

func TestSplitPeriods(t *testing.T) {
	l := &Log{}
	for i := 0; i < 100; i++ {
		l.Jobs = append(l.Jobs, Job{ID: i, Submit: float64(i)})
	}
	parts := l.SplitPeriods(4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for i, p := range parts {
		total += len(p.Jobs)
		if len(p.Jobs) == 0 {
			t.Fatalf("period %d empty", i)
		}
	}
	if total != 100 {
		t.Fatalf("jobs after split = %d", total)
	}
	// Periods must be time-ordered: max submit of part i < min of part i+1.
	for i := 0; i < 3; i++ {
		maxI := parts[i].Jobs[len(parts[i].Jobs)-1].Submit
		minNext := parts[i+1].Jobs[0].Submit
		if maxI >= minNext {
			t.Fatalf("period boundary violated: %v >= %v", maxI, minNext)
		}
	}
}

func TestSplitPeriodsEdge(t *testing.T) {
	if (&Log{}).SplitPeriods(4) != nil {
		t.Fatal("empty log should return nil")
	}
	l := &Log{Jobs: []Job{{Submit: 5}}}
	parts := l.SplitPeriods(3)
	if len(parts) != 3 || len(parts[0].Jobs) != 1 {
		t.Fatal("single job should land in first period")
	}
}

func TestInterArrivals(t *testing.T) {
	l := &Log{Jobs: []Job{{Submit: 10}, {Submit: 0}, {Submit: 30}}}
	got := l.InterArrivals()
	want := []float64{10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InterArrivals = %v", got)
		}
	}
	if (&Log{Jobs: []Job{{Submit: 1}}}).InterArrivals() != nil {
		t.Fatal("single job should give nil inter-arrivals")
	}
}

func TestSortBySubmit(t *testing.T) {
	l := &Log{Jobs: []Job{{ID: 1, Submit: 5}, {ID: 2, Submit: 1}, {ID: 3, Submit: 3}}}
	l.SortBySubmit()
	if l.Jobs[0].ID != 2 || l.Jobs[1].ID != 3 || l.Jobs[2].ID != 1 {
		t.Fatalf("sort order wrong: %+v", l.Jobs)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := sampleLog()
	c := l.Clone()
	c.Jobs[0].Runtime = 999
	c.Header[0] = "changed"
	if l.Jobs[0].Runtime == 999 || l.Header[0] == "changed" {
		t.Fatal("Clone shares storage")
	}
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	// Robustness: arbitrary bytes must produce an error or a log, never
	// a panic.
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(bytes.NewReader(raw))
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseMixedValidAndGarbageLine(t *testing.T) {
	text := "1 0 0 10 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\nnot a job line\n"
	if _, err := Parse(strings.NewReader(text)); err == nil {
		t.Fatal("garbage line accepted")
	}
}
