package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// planDigest fingerprints a workload's plan for seed: every set-up
// request and the first n timed ones, method, path, type and body.
func planDigest(t *testing.T, sp spec, seed uint64, n int) [sha256.Size]byte {
	t.Helper()
	w, err := sp.make(seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	h := sha256.New()
	add := func(r request) {
		fmt.Fprintf(h, "%s %s %s %d\n", r.method, r.path, r.ctype, len(r.body))
		h.Write(r.body)
	}
	for _, r := range w.setup() {
		add(r)
	}
	for i := 0; i < n; i++ {
		r, err := w.request(i)
		if err != nil {
			t.Fatalf("%s seed %d request %d: %v", sp.name, seed, i, err)
		}
		add(r)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestPlansArePureFunctionsOfTheSeed holds every workload's requests to
// (workload, seed): the same seed gives the same bytes, another seed
// different ones.
func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := planDigest(t, sp, 1, 40)
			if b := planDigest(t, sp, 1, 40); a != b {
				t.Error("two plans for seed 1 differ")
			}
			if c := planDigest(t, sp, 2, 40); a == c {
				t.Error("seeds 1 and 2 give the same plan")
			}
		})
	}
}

// repoRoot is the root of the repository holding this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	repo, err := findRepo(wd)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json's workloads and
// metric lists to the ones the code runs and reports.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, sp := range specs {
		want = append(want, sp.name+": "+sp.why)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("workloads:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A report's metrics, reached or not, carry their names and units.
	rep := &report{ph: &phase{}, tracer: newTracer(time.Now())}
	units := map[string]string{}
	for _, m := range append(rep.endToEnd(), rep.perLayer()...) {
		units[m.name] = m.unit
	}
	got, want = nil, nil
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range rep.endToEnd() {
		want = append(want, m.name+" "+m.unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end %v, the code reports %v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, name := range layerJSON {
		want = append(want, name+" "+units[name])
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer %v, the code reports %v", got, want)
	}
}

// TestSmoke runs every workload cut to a few requests against a coplotd
// built into a temporary directory, traced, with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts coplotd")
	}
	repo := repoRoot(t)
	cfg := config{
		repo: repo, build: t.TempDir(), out: t.TempDir(),
		seed: 1, seconds: 60, trace: true, setups: 1, limit: 8,
	}
	var stdout, stderr bytes.Buffer
	if code := execute(context.Background(), cfg, specs, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var results []result
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, res)
		}
	}
	if len(results) != len(specs) {
		t.Fatalf("%d result lines, want %d:\n%s", len(results), len(specs), stdout.String())
	}
	for k, res := range results {
		if !res.Correct || res.Attempted != cfg.limit || res.Failed != 0 {
			t.Errorf("%s: %+v", specs[k].name, res)
		}
		for _, name := range layerJSON {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: no %s on the result line", specs[k].name, name)
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.out, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"transport.loopback", "service.handler", "swf.parse", "corpus.match", "stream.append"} {
		if !bytes.Contains(data, []byte(`"layer":"`+layer+`"`)) {
			t.Errorf("spans.jsonl has no %s span", layer)
		}
	}
}
