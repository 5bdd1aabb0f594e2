package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"coplot/internal/service"
	"coplot/pkg/coplotclient"
)

// The deployment under test: one coplotd replica configured like a
// production one on a 2-CPU host. The in-process replay of -trace uses
// the same settings through service.Config.
const (
	deployJobs       = 2
	deployLandmarks  = 50
	deployCacheBytes = 512 << 10
)

// serviceConfig is the deployment as an in-process service.Config.
func serviceConfig(cacheDir string) service.Config {
	return service.Config{
		Jobs: deployJobs, Landmarks: deployLandmarks,
		CacheDir: cacheDir, CacheBytes: deployCacheBytes,
	}
}

// buildCoplotd compiles ./cmd/coplotd of the repository at repo into
// out, so every run measures the code of its own checkout.
func buildCoplotd(ctx context.Context, repo, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/coplotd")
	cmd.Dir = repo
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building coplotd: %v\n%s", err, stderr.String())
	}
	return nil
}

// findRepo walks up from dir to the root of the coplot module.
func findRepo(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module coplot\n") {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no coplot module above %s", dir)
		}
	}
}

// server is one running coplotd subprocess.
type server struct {
	cmd     *exec.Cmd
	client  *coplotclient.Client
	http    *http.Client
	done    chan struct{} // closed when stderr closes
	stopped sync.Once

	mu   sync.Mutex
	logs bytes.Buffer // stderr, for diagnostics
}

// startServer launches coplotd with a fresh cache directory and waits
// until /healthz answers. The server listens on a kernel-chosen
// loopback port, read back from its startup line.
func startServer(ctx context.Context, bin, cacheDir string) (*server, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-jobs", strconv.Itoa(deployJobs),
		"-landmarks", strconv.Itoa(deployLandmarks),
		"-cache-dir", cacheDir,
		"-cache-bytes", strconv.Itoa(deployCacheBytes))
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting coplotd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.logs.WriteString(line + "\n")
			s.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "coplotd: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		// At most feedStreams requests are ever in flight, one per
		// keep-alive connection.
		s.http = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: feedStreams, MaxIdleConnsPerHost: feedStreams, DisableCompression: true,
		}}
		s.client = coplotclient.New("http://"+a, s.http)
	case <-s.done:
		s.wait()
		return nil, fmt.Errorf("coplotd exited during start-up:\n%s", s.stderr())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for {
		_, _, err := s.client.Do(ctx, http.MethodGet, "/healthz", "", nil)
		if err == nil {
			return s, nil
		}
		select {
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stderr returns what the server has logged so far.
func (s *server) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logs.String()
}

// wait reaps the process once its stderr has closed.
func (s *server) wait() error {
	<-s.done
	return s.cmd.Wait()
}

// stop drains the server with SIGTERM, killing it if the drain hangs,
// and returns once the process has exited. Later calls do nothing.
func (s *server) stop() {
	s.stopped.Do(func() {
		if s.http != nil {
			s.http.CloseIdleConnections()
		}
		s.cmd.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			s.wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-exited
		}
	})
}

// memory reads one of the server's memory figures from
// /proc/<pid>/status, such as VmRSS (resident now) or VmHWM (the
// resident high-water mark), in MB (10^6 bytes).
func (s *server) memory(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// rssEvery is how often watchRSS samples the resident set.
const rssEvery = 100 * time.Millisecond

// watchRSS samples the server's resident set every rssEvery until the
// returned function is called; that function takes one last sample and
// returns them all, in MB.
func (s *server) watchRSS() func() ([]float64, error) {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- out
				return
			case <-tick.C:
				if v, err := s.memory("VmRSS"); err == nil {
					out = append(out, v)
				}
			}
		}
	}()
	return func() ([]float64, error) {
		close(stop)
		out := <-done
		v, err := s.memory("VmRSS")
		return append(out, v), err
	}
}

// tierCounts are one storage tier's traffic counters from /metrics.
type tierCounts struct {
	Tier      string `json:"tier"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// storage reads the per-tier store counters from /metrics.
func (s *server) storage(ctx context.Context) (map[string]tierCounts, error) {
	body, _, err := s.client.Do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	var m struct {
		Storage []tierCounts `json:"storage"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := map[string]tierCounts{}
	for _, t := range m.Storage {
		out[t.Tier] = t
	}
	return out, nil
}

// send issues one request through the client and returns its body,
// status and cache verdict. Transport errors and non-2xx answers come
// back as err with status set when the server answered.
func send(ctx context.Context, c *coplotclient.Client, r request) (body []byte, status int, hit bool, header http.Header, err error) {
	body, meta, err := c.Do(ctx, r.method, r.path, r.ctype, r.body)
	if meta != nil {
		status, hit, header = meta.Status, meta.CacheHit, meta.Header
	}
	return body, status, hit, header, err
}
