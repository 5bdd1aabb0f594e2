// Package validate performs sanity checks on workload logs. The paper's
// introduction lists the ways production traces betray their users:
// "mysterious jobs that exceeded the system's limits, undocumented
// downtime, dedication of the system to certain users, and other 'minor'
// undocumented administrative changes". This package detects those
// anomalies mechanically, so a log can be audited before it is trusted
// as a model — the "correctness of the log" assumption of section 1.
package validate

import (
	"fmt"
	"sort"

	"coplot/internal/machine"
	"coplot/internal/stats"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// Severity grades an issue.
type Severity int

const (
	// Warning marks suspicious but not impossible records.
	Warning Severity = iota
	// Error marks physically impossible or corrupt records.
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "ERROR"
	}
	return "WARN"
}

// Issue is one detected anomaly.
type Issue struct {
	Severity Severity
	// Code is a stable machine-readable identifier, e.g. "oversized-job".
	Code string
	// JobID is the offending job, or 0 for log-level issues.
	JobID   int
	Message string
}

// Report aggregates the issues of one log.
type Report struct {
	Issues []Issue
	// Counts tallies issues per code.
	Counts map[string]int
}

func (r *Report) add(sev Severity, code string, jobID int, format string, args ...interface{}) {
	r.Issues = append(r.Issues, Issue{
		Severity: sev, Code: code, JobID: jobID,
		Message: fmt.Sprintf(format, args...),
	})
	r.Counts[code]++
}

// Errors reports how many Error-severity issues were found.
func (r *Report) Errors() int {
	n := 0
	for _, i := range r.Issues {
		if i.Severity == Error {
			n++
		}
	}
	return n
}

// Options tune the checks.
type Options struct {
	// DowntimeFactor flags inter-arrival gaps larger than this multiple
	// of the 99th-percentile gap as potential undocumented downtime.
	// Default 10.
	DowntimeFactor float64
	// TopUserWarn flags logs where one user submitted more than this
	// fraction of all jobs (system dedication). Default 0.5.
	TopUserWarn float64
}

func (o Options) withDefaults() Options {
	if o.DowntimeFactor <= 0 {
		o.DowntimeFactor = 10
	}
	if o.TopUserWarn <= 0 {
		o.TopUserWarn = 0.5
	}
	return o
}

// maxIssuesPerCode caps the reported issues of one code; Report.Counts
// still counts them all.
const maxIssuesPerCode = 100

// Check audits a log against its machine description.
func Check(log *swf.Log, m machine.Machine, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Counts: map[string]int{}}
	add := func(sev Severity, code string, jobID int, format string, args ...interface{}) {
		if rep.Counts[code] >= maxIssuesPerCode {
			rep.Counts[code]++
			return
		}
		rep.add(sev, code, jobID, format, args...)
	}

	if err := m.Validate(); err != nil {
		add(Error, "bad-machine", 0, "%v", err)
	}
	if len(log.Jobs) == 0 {
		add(Warning, "empty-log", 0, "log contains no jobs")
		return rep
	}

	seenIDs := map[int]bool{}
	var running []usage
	byID := map[int]swf.Job{}
	for _, j := range log.Jobs {
		byID[j.ID] = j
	}
	for _, j := range log.Jobs {
		if seenIDs[j.ID] {
			add(Error, "duplicate-id", j.ID, "job ID %d appears more than once", j.ID)
		}
		seenIDs[j.ID] = true
		if j.Procs == 0 || j.Procs < -1 {
			add(Error, "bad-procs", j.ID, "invalid processor count %d", j.Procs)
		}
		if j.Procs > m.Procs {
			add(Error, "oversized-job", j.ID,
				"job uses %d processors on a %d-processor machine", j.Procs, m.Procs)
		}
		if j.Runtime < 0 && j.Runtime != -1 {
			add(Error, "bad-runtime", j.ID, "invalid runtime %v", j.Runtime)
		}
		if j.Wait < 0 && j.Wait != -1 {
			add(Error, "negative-wait", j.ID, "negative wait %v", j.Wait)
		}
		if j.CPUTime > 0 && j.Runtime >= 0 && j.CPUTime > j.Runtime*1.001 {
			add(Error, "cpu-exceeds-runtime", j.ID,
				"CPU time %v exceeds runtime %v", j.CPUTime, j.Runtime)
		}
		if j.Status < -1 || j.Status > 5 {
			add(Error, "bad-status", j.ID, "status %d outside SWF range", j.Status)
		}
		if j.PrecedingID > 0 {
			prev, ok := byID[j.PrecedingID]
			if !ok {
				add(Warning, "dangling-precedence", j.ID,
					"preceding job %d not in log", j.PrecedingID)
			} else if prev.Runtime >= 0 && prev.Wait >= 0 &&
				j.Submit < prev.Submit+prev.Wait+prev.Runtime-1e-6 {
				add(Warning, "precedence-overlap", j.ID,
					"submitted before its preceding job %d finished", j.PrecedingID)
			}
		}
		if j.Runtime > 0 && j.Procs > 0 {
			start := j.Submit
			if j.Wait > 0 {
				start += j.Wait
			}
			running = append(running, usage{start, start + j.Runtime, float64(j.Procs)})
		}
	}

	// The over-capacity sweep only makes sense for *executed* logs, where
	// start times reflect scheduler decisions. A log with no recorded
	// waits is a pure submission stream (model output): demand may
	// legitimately exceed the machine, since nothing queued it yet.
	hasWaits := false
	for _, j := range log.Jobs {
		if j.Wait > 0 {
			hasWaits = true
			break
		}
	}
	if hasWaits {
		checkCapacity(rep, add, running, m)
	} else {
		add(Warning, "pure-stream", 0,
			"no wait times recorded: treating log as a pure submission stream, capacity check skipped")
	}
	checkDowntime(rep, add, log, opts)
	checkDedication(rep, add, log, opts)
	return rep
}

// checkCapacity sweeps the start/end events and flags instants where the
// allocated processors exceed the machine (impossible in a correct log;
// in real archives a symptom of clock errors or misrecorded sizes).
// usage is one job's occupancy interval.
type usage struct{ start, end, procs float64 }

func checkCapacity(rep *Report, add func(Severity, string, int, string, ...interface{}), running []usage, m machine.Machine) {
	type event struct {
		t     float64
		delta float64
	}
	events := make([]event, 0, 2*len(running))
	for _, iv := range running {
		events = append(events, event{iv.start, iv.procs}, event{iv.end, -iv.procs})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].delta < events[b].delta // releases before claims at ties
	})
	load := 0.0
	worst := 0.0
	for _, e := range events {
		load += e.delta
		if load > worst {
			worst = load
		}
	}
	if worst > float64(m.Procs)+1e-6 {
		add(Error, "over-capacity", 0,
			"allocated processors peak at %.0f on a %d-processor machine", worst, m.Procs)
	}
}

// checkDowntime flags extreme arrival gaps as potential undocumented
// downtime.
func checkDowntime(rep *Report, add func(Severity, string, int, string, ...interface{}), log *swf.Log, opts Options) {
	gaps := log.InterArrivals()
	if len(gaps) < 20 {
		return
	}
	p99 := stats.Quantile(gaps, 0.99)
	if p99 <= 0 {
		return
	}
	threshold := p99 * opts.DowntimeFactor
	for i, g := range gaps {
		if g > threshold {
			add(Warning, "possible-downtime", 0,
				"arrival gap of %.0fs after job index %d (99th percentile gap is %.0fs)", g, i, p99)
		}
	}
}

// checkDedication flags logs dominated by a single user.
func checkDedication(rep *Report, add func(Severity, string, int, string, ...interface{}), log *swf.Log, opts Options) {
	c := workload.UserConcentration(log)
	if c.Users > 1 && c.TopUserJobs > opts.TopUserWarn {
		add(Warning, "user-dedication", 0,
			"one user submitted %.0f%% of all jobs (%d users total)", c.TopUserJobs*100, c.Users)
	}
}
