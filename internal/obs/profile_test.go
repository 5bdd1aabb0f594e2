package obs

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProfileNoFlagsIsNoop(t *testing.T) {
	var p Profile
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileWritesCPUAndHeapFiles(t *testing.T) {
	dir := t.TempDir()
	p := Profile{CPUPath: filepath.Join(dir, "cpu.prof"), MemPath: filepath.Join(dir, "mem.prof")}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	for i := 0; i < 100_000; i++ {
		x += float64(i%7) * 1.000001
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUPath, p.MemPath} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

func TestProfileServesPprof(t *testing.T) {
	p := Profile{Addr: "127.0.0.1:0"}
	stop, err := p.Start()
	if err != nil {
		t.Skipf("cannot listen on loopback here: %v", err)
	}
	defer stop()
	resp, err := http.Get("http://" + p.bound + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, body)
	}
}

func TestProfileBadAddrFailsFast(t *testing.T) {
	p := Profile{Addr: "256.0.0.1:bad"}
	if _, err := p.Start(); err == nil {
		t.Fatal("unusable pprof address accepted")
	}
}

func TestProfileRegisterFlags(t *testing.T) {
	var p Profile
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p.RegisterFlags(fs)
	err := fs.Parse([]string{"-cpuprofile", "c", "-memprofile", "m", "-pprof", "localhost:6060"})
	if err != nil {
		t.Fatal(err)
	}
	if p.CPUPath != "c" || p.MemPath != "m" || p.Addr != "localhost:6060" {
		t.Fatalf("flags not bound: %+v", p)
	}
}
