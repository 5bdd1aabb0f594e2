// Package swf implements the Standard Workload Format (SWF) of the
// Parallel Workloads Archive — the format into which the paper's authors
// translated all production logs and model outputs. Each job is one line
// of 18 whitespace-separated fields; header lines begin with ';'. Missing
// values are recorded as -1.
//
// The package also provides the log-level filters the paper relies on:
// splitting a log into its interactive and batch sub-logs, and slicing a
// log into consecutive time windows (the half-year periods of section 6).
package swf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Job statuses used by the SWF status field.
const (
	StatusFailed    = 0
	StatusCompleted = 1
	StatusPartial   = 2
	StatusCancelled = 5
)

// Queue identifiers used by the generators in this repository. Real logs
// use site-specific queue numbers; our synthetic sites follow this
// convention so the interactive/batch split is well defined.
const (
	QueueInteractive = 1
	QueueBatch       = 2
)

// Job is one SWF record. Times are in seconds since the log start.
// Missing values are -1, as in the archive.
type Job struct {
	ID          int     // 1: job number
	Submit      float64 // 2: submit time
	Wait        float64 // 3: wait time
	Runtime     float64 // 4: run time
	Procs       int     // 5: number of allocated processors
	CPUTime     float64 // 6: average CPU time used per processor
	Memory      float64 // 7: used memory (KB per node)
	ReqProcs    int     // 8: requested processors
	ReqTime     float64 // 9: requested time
	ReqMemory   float64 // 10: requested memory
	Status      int     // 11: completion status
	User        int     // 12: user ID
	Group       int     // 13: group ID
	Executable  int     // 14: executable (application) number
	Queue       int     // 15: queue number
	Partition   int     // 16: partition number
	PrecedingID int     // 17: preceding job number
	ThinkTime   float64 // 18: think time after preceding job
}

// TotalWork returns the job's total CPU work across all of its
// processors: runtime × processors. Where real CPU time is recorded the
// paper prefers it, but runtime × parallelism is the substitute rule it
// applies to the NASA log (section 3, assumption 3).
func (j Job) TotalWork() float64 {
	if j.Runtime < 0 || j.Procs < 0 {
		return -1
	}
	return j.Runtime * float64(j.Procs)
}

// Log is an ordered collection of jobs plus free-form header comments.
type Log struct {
	Header []string // comment lines without the leading "; "
	Jobs   []Job
}

// Clone returns a deep copy of the log.
func (l *Log) Clone() *Log {
	out := &Log{Header: append([]string(nil), l.Header...)}
	out.Jobs = append([]Job(nil), l.Jobs...)
	return out
}

// SortBySubmit orders jobs by submit time (stable), which every analysis
// assumes.
func (l *Log) SortBySubmit() {
	sort.SliceStable(l.Jobs, func(a, b int) bool { return l.Jobs[a].Submit < l.Jobs[b].Submit })
}

// Duration returns the span from the first submit to the last job end
// (submit + wait + runtime), the denominator of the paper's load
// variables.
func (l *Log) Duration() float64 {
	if len(l.Jobs) == 0 {
		return 0
	}
	first := l.Jobs[0].Submit
	last := first
	for i := range l.Jobs {
		j := &l.Jobs[i]
		if j.Submit < first {
			first = j.Submit
		}
		end := j.Submit
		if j.Wait > 0 {
			end += j.Wait
		}
		if j.Runtime > 0 {
			end += j.Runtime
		}
		if end > last {
			last = end
		}
	}
	return last - first
}

// SplitPeriods slices the log into n consecutive equal-duration windows
// by submit time, the transformation behind section 6 (four half-year
// periods of the LANL and SDSC logs).
func (l *Log) SplitPeriods(n int) []*Log {
	if n <= 0 || len(l.Jobs) == 0 {
		return nil
	}
	lo := l.Jobs[0].Submit
	hi := lo
	for _, j := range l.Jobs {
		if j.Submit < lo {
			lo = j.Submit
		}
		if j.Submit > hi {
			hi = j.Submit
		}
	}
	width := (hi - lo) / float64(n)
	out := make([]*Log, n)
	for i := range out {
		out[i] = &Log{Header: append([]string(nil), l.Header...)}
	}
	for _, j := range l.Jobs {
		idx := 0
		if width > 0 {
			idx = int((j.Submit - lo) / width)
			if idx >= n {
				idx = n - 1
			}
		}
		out[idx].Jobs = append(out[idx].Jobs, j)
	}
	return out
}

// Write serializes the log in SWF text form.
func Write(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	for _, h := range l.Header {
		if _, err := fmt.Fprintf(bw, "; %s\n", h); err != nil {
			return err
		}
	}
	for _, j := range l.Jobs {
		if _, err := fmt.Fprintf(bw, "%d %s %s %s %d %s %s %d %s %s %d %d %d %d %d %d %d %s\n",
			j.ID, num(j.Submit), num(j.Wait), num(j.Runtime), j.Procs,
			num(j.CPUTime), num(j.Memory), j.ReqProcs, num(j.ReqTime),
			num(j.ReqMemory), j.Status, j.User, j.Group, j.Executable,
			j.Queue, j.Partition, j.PrecedingID, num(j.ThinkTime)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// num renders a float compactly, keeping "-1" for missing values exact.
func num(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'f', 2, 64)
}

// Parse reads an SWF log. Malformed lines produce an error naming the
// line number; short lines (fewer than 18 fields) are rejected. A line
// longer than 1 MiB fails with an error that names it and wraps
// bufio.ErrTooLong.
//
// Fields are split in place in the scanner's buffer, on the white space
// strings.Fields splits on (ASCII inline, anything else decoded as UTF-8
// and tested with unicode.IsSpace). Integer fields go through
// strconv.Atoi. A float field of an optional '-' and at most 15 digits
// is converted directly, since strconv.ParseFloat would return the same
// value exactly; every other float field goes through ParseFloat. Values
// and error messages are therefore those of strconv.
func Parse(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	log := &Log{}
	var fields [18][]byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		nf, start := splitFields(line, &fields)
		if nf == 0 {
			continue
		}
		if line[start] == ';' {
			log.Header = append(log.Header, string(bytes.TrimSpace(line[start+1:])))
			continue
		}
		if nf < len(fields) {
			return nil, fmt.Errorf("swf: line %d has %d fields, want 18", lineNo, nf)
		}
		var j Job
		var err error
		geti := func(idx int) int {
			if err != nil {
				return 0
			}
			v, e := strconv.Atoi(string(fields[idx]))
			if e != nil {
				err = fmt.Errorf("swf: line %d field %d: %v", lineNo, idx+1, e)
			}
			return v
		}
		getf := func(idx int) float64 {
			if err != nil {
				return 0
			}
			tok := fields[idx]
			if f, ok := exactInt(tok); ok {
				return f
			}
			v, e := strconv.ParseFloat(string(tok), 64)
			switch {
			case e != nil:
				err = fmt.Errorf("swf: line %d field %d: %v", lineNo, idx+1, e)
			case math.IsNaN(v) || math.IsInf(v, 0):
				// ParseFloat accepts "NaN" and "Inf"; a log carrying them
				// would poison every downstream statistic, so reject the
				// line instead of propagating non-finite values.
				err = fmt.Errorf("swf: line %d field %d: non-finite value %q", lineNo, idx+1, tok)
			}
			return v
		}
		j.ID = geti(0)
		j.Submit = getf(1)
		j.Wait = getf(2)
		j.Runtime = getf(3)
		j.Procs = geti(4)
		j.CPUTime = getf(5)
		j.Memory = getf(6)
		j.ReqProcs = geti(7)
		j.ReqTime = getf(8)
		j.ReqMemory = getf(9)
		j.Status = geti(10)
		j.User = geti(11)
		j.Group = geti(12)
		j.Executable = geti(13)
		j.Queue = geti(14)
		j.Partition = geti(15)
		j.PrecedingID = geti(16)
		j.ThinkTime = getf(17)
		if err != nil {
			return nil, err
		}
		log.Jobs = append(log.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("swf: line %d: %w", lineNo+1, err)
		}
		return nil, err
	}
	return log, nil
}

// maxLine is the longest line Parse accepts. The scanner's buffer grows
// to it only when a line needs it.
const maxLine = 1 << 20

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields stores the first len(dst) white-space-separated fields of
// line in dst, as slices of line, and returns how many it stored and
// the offset of the first. It splits where strings.Fields does.
func splitFields(line []byte, dst *[18][]byte) (n, start int) {
	from := -1 // start of the field being scanned, or -1 between fields
	for i := 0; i < len(line); {
		c, w := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && from >= 0:
			dst[n] = line[from:i]
			n++
			from = -1
			if n == len(dst) {
				return n, start
			}
		case !space && from < 0:
			from = i
			if n == 0 {
				start = i
			}
		}
		i += w
	}
	if from >= 0 {
		dst[n] = line[from:]
		n++
	}
	return n, start
}

// exactInt reads tok as an optional '-' and 1 to 15 decimal digits, the
// shape of most SWF fields. Such a value is exact as a float64, so it
// equals what strconv.ParseFloat would return, "-0" a negative zero
// included; ok is false for any other token.
func exactInt(tok []byte) (f float64, ok bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) == 0 || len(tok) > 15 {
		return 0, false
	}
	var v int64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	f = float64(v)
	if neg {
		f = -f
	}
	return f, true
}

// InterArrivals returns the deltas between consecutive submit times of the
// log in submit order. When submit times are unknown but start times are
// (section 3, assumption 2), callers should populate Submit with the start
// times before calling.
func (l *Log) InterArrivals() []float64 {
	if len(l.Jobs) < 2 {
		return nil
	}
	submits := make([]float64, len(l.Jobs))
	for i := range l.Jobs {
		submits[i] = l.Jobs[i].Submit
	}
	sort.Float64s(submits)
	out := make([]float64, len(submits)-1)
	for i := range out {
		out[i] = submits[i+1] - submits[i]
	}
	return out
}
