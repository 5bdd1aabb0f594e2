package main

import (
	"os"
	"strings"
	"testing"

	"coplot/internal/machine"
	"coplot/internal/swf"
)

func TestGenerateModels(t *testing.T) {
	for _, name := range []string{"feitelson96", "feitelson97", "downey", "jann", "lublin", "session", "ss-lublin"} {
		log, m, err := generate(name, "", "", "", 64, 500, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(log.Jobs) != 500 {
			t.Fatalf("%s: %d jobs", name, len(log.Jobs))
		}
		if m.Procs != 64 {
			t.Fatalf("%s: machine procs %d", name, m.Procs)
		}
	}
}

func TestGenerateSites(t *testing.T) {
	log, m, err := generate("", "NASA", "", "", 0, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Jobs) != 800 {
		t.Fatalf("jobs = %d", len(log.Jobs))
	}
	if m != machine.NASA {
		t.Fatalf("machine = %+v", m)
	}
	// Period generators are reachable too.
	if _, _, err := generate("", "L3", "", "", 0, 600, 3); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, _, err := generate("", "", "", "", 64, 10, 1); err == nil {
		t.Fatal("no selection accepted")
	}
	if _, _, err := generate("lublin", "CTC", "", "", 64, 10, 1); err == nil {
		t.Fatal("both selections accepted")
	}
	if _, _, err := generate("nope", "", "", "", 64, 10, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, _, err := generate("", "XYZ", "", "", 64, 10, 1); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestReplayThroughScheduler(t *testing.T) {
	log, m, err := generate("lublin", "", "", "", 64, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := replay(log, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != len(log.Jobs) {
		t.Fatalf("replay lost jobs: %d vs %d", len(out.Jobs), len(log.Jobs))
	}
	waited := false
	for _, j := range out.Jobs {
		if j.Wait > 0 {
			waited = true
		}
		if j.Wait < 0 {
			t.Fatal("negative wait after replay")
		}
	}
	if !waited {
		t.Log("note: no queueing occurred at this load (acceptable)")
	}
}

func TestGenerateClone(t *testing.T) {
	// Write a source log, then clone it.
	src, _, err := generate("lublin", "", "", "", 64, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/src.swf"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, src); err != nil {
		t.Fatal(err)
	}
	f.Close()
	twin, m, err := generate("", "", path, "", 64, 1500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(twin.Jobs) != 1500 {
		t.Fatalf("twin jobs = %d", len(twin.Jobs))
	}
	if m.Procs != 64 {
		t.Fatalf("machine procs = %d", m.Procs)
	}
	if _, _, err := generate("", "", dir+"/missing.swf", "", 64, 100, 1); err == nil {
		t.Fatal("missing clone source accepted")
	}
	if _, _, err := generate("lublin", "", path, "", 64, 100, 1); err == nil {
		t.Fatal("model+clone accepted")
	}
}

func TestGenerateFromSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/specs.txt"
	table := "demo 64/easy/unlimited 700 batch 60 1500 900 50000 2 30 0 0 false 0 0 0.7 0.7 0.7 0.01 0 0.8 0.9\n" +
		"other NASA 500 batch 60 1500 900 50000 2 30 0 0 false 0 0 0.7 0.7 0.7 0.01 0 0.8 0.9\n"
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	// -site selects within the file; the file's jobs column wins over -n.
	log, m, err := generate("", "demo", "", path, 0, 999, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Jobs) != 700 {
		t.Fatalf("jobs = %d, want the spec table's 700", len(log.Jobs))
	}
	if m.Procs != 64 {
		t.Fatalf("machine = %+v", m)
	}
	// A multi-spec file without a selector errors, naming the choices.
	if _, _, err := generate("", "", "", path, 0, 0, 1); err == nil {
		t.Fatal("ambiguous spec file accepted")
	}
	// Unknown -site name within the file errors.
	if _, _, err := generate("", "nope", "", path, 0, 0, 1); err == nil {
		t.Fatal("unknown observation accepted")
	}
	// Malformed tables are rejected with the file named.
	bad := dir + "/bad.txt"
	if err := os.WriteFile(bad, []byte("x y z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := generate("", "", "", bad, 0, 0, 1); err == nil {
		t.Fatal("malformed spec table accepted")
	}
	// -spec is exclusive with -model and -clone.
	if _, _, err := generate("lublin", "", "", path, 64, 100, 1); err == nil {
		t.Fatal("model+spec accepted")
	}
}

// TestNonPositiveProcsFails runs the command with -procs 0 and -4: it
// must exit 1 with an error message, not panic inside a model.
func TestNonPositiveProcsFails(t *testing.T) {
	for _, procs := range []string{"0", "-4"} {
		var stdout, stderr strings.Builder
		code := run([]string{"-model", "lublin", "-procs", procs, "-n", "10"}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "wgen: ") || stdout.Len() != 0 {
			t.Errorf("-procs %s: exit %d, stderr %q, %d stdout bytes", procs, code, stderr.String(), stdout.Len())
		}
	}
}
