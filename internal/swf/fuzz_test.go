package swf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the SWF parser. Parse must never
// panic and must agree with parseReference: the same log, float fields
// equal bit for bit, or the same error text. When it accepts an input,
// every float field must be finite (hostile "NaN"/"Inf" tokens are
// rejected at parse time) and the log must survive a Write→Parse round
// trip with its structure intact.
func FuzzParse(f *testing.F) {
	f.Add([]byte("; Computer: test\n; Procs: 4\n1 0 5 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))
	f.Add([]byte("1 0.5 5 10 2 8.25 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n2 1.5 0 3 1 -1 -1 1 4 -1 0 2 1 2 1 -1 -1 -1\n"))
	f.Add([]byte("\n   \n; only a header\n"))
	f.Add([]byte("1 2 3\n"))                                                         // short line
	f.Add([]byte("x 0 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))                    // bad int
	f.Add([]byte("1 NaN 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))                  // non-finite
	f.Add([]byte("1 +Inf 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))                 // non-finite
	f.Add([]byte("1 1e999 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"))                // float overflow
	f.Add([]byte("1 0 0 10 99999999999999999999 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n")) // int overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := Parse(bytes.NewReader(data))
		want, wantErr := parseReference(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Parse error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if d := diffLogs(log, want); d != "" {
			t.Fatalf("Parse differs from the reference: %s", d)
		}
		for i, j := range log.Jobs {
			for _, v := range []float64{j.Submit, j.Wait, j.Runtime, j.CPUTime,
				j.Memory, j.ReqTime, j.ReqMemory, j.ThinkTime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("job %d: accepted a non-finite field: %+v", i, j)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, log); err != nil {
			t.Fatalf("Write of a parsed log failed: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, buf.String())
		}
		if len(again.Jobs) != len(log.Jobs) || len(again.Header) != len(log.Header) {
			t.Fatalf("round trip changed shape: %d/%d jobs, %d/%d header lines",
				len(again.Jobs), len(log.Jobs), len(again.Header), len(log.Header))
		}
		for i := range log.Jobs {
			a, b := log.Jobs[i], again.Jobs[i]
			if a.ID != b.ID || a.Procs != b.Procs || a.Status != b.Status ||
				a.User != b.User || a.Queue != b.Queue {
				t.Fatalf("round trip changed job %d: %+v != %+v", i, a, b)
			}
		}
	})
}

// TestParseRejectsNonFinite pins the hardening FuzzParse relies on:
// tokens ParseFloat accepts but no sane log contains must error with the
// offending line and field named.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, tok := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		line := "1 " + tok + " 0 10 2 8 -1 2 15 -1 1 1 1 1 2 -1 -1 -1\n"
		_, err := Parse(strings.NewReader(line))
		if err == nil {
			t.Errorf("submit time %q accepted", tok)
			continue
		}
		if !strings.Contains(err.Error(), "line 1 field 2") {
			t.Errorf("submit time %q: error does not locate the field: %v", tok, err)
		}
	}
}

// diffLogs describes the first difference between two logs, comparing
// float fields bit for bit so a signed zero counts; "" means identical.
func diffLogs(got, want *Log) string {
	if !slices.Equal(got.Header, want.Header) {
		return fmt.Sprintf("header %q, want %q", got.Header, want.Header)
	}
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Sprintf("%d jobs, want %d", len(got.Jobs), len(want.Jobs))
	}
	bits := func(j Job) [8]uint64 {
		var b [8]uint64
		for k, v := range []float64{j.Submit, j.Wait, j.Runtime, j.CPUTime,
			j.Memory, j.ReqTime, j.ReqMemory, j.ThinkTime} {
			b[k] = math.Float64bits(v)
		}
		return b
	}
	for i, g := range got.Jobs {
		w := want.Jobs[i]
		if g != w || bits(g) != bits(w) { // == alone takes -0 for +0
			return fmt.Sprintf("job %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// parseReference is Parse as it was before the in-place tokenizer: the
// line as a trimmed string, strings.Fields, strconv for every token. The
// one change is the over-long-line error, which names the line as Parse
// does. FuzzParse holds Parse to it.
func parseReference(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	log := &Log{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			log.Header = append(log.Header, strings.TrimSpace(strings.TrimPrefix(line, ";")))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 18 {
			return nil, fmt.Errorf("swf: line %d has %d fields, want 18", lineNo, len(fields))
		}
		var j Job
		var err error
		geti := func(idx int) int {
			if err != nil {
				return 0
			}
			v, e := strconv.Atoi(fields[idx])
			if e != nil {
				err = fmt.Errorf("swf: line %d field %d: %v", lineNo, idx+1, e)
			}
			return v
		}
		getf := func(idx int) float64 {
			if err != nil {
				return 0
			}
			v, e := strconv.ParseFloat(fields[idx], 64)
			switch {
			case e != nil:
				err = fmt.Errorf("swf: line %d field %d: %v", lineNo, idx+1, e)
			case math.IsNaN(v) || math.IsInf(v, 0):
				err = fmt.Errorf("swf: line %d field %d: non-finite value %q", lineNo, idx+1, fields[idx])
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
