package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"coplot/internal/cluster"
)

// clusterReplica is one in-process coplotd replica of the acceptance
// cluster: a Service in peer mode behind a real TCP listener, so the
// replicas talk to each other over actual HTTP.
type clusterReplica struct {
	url string
	svc *Service
	srv *http.Server
}

// startCluster brings up n peered replicas. Listeners are created
// first so every replica can be configured with the full member list
// before any of them serves.
func startCluster(t *testing.T, n int) []*clusterReplica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	reps := make([]*clusterReplica, n)
	for i := range reps {
		svc, err := New(Config{
			Jobs:        2,
			Peers:       urls,
			Self:        urls[i],
			PeerTimeout: 500 * time.Millisecond,
			PeerRetries: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc}
		go srv.Serve(lns[i])
		reps[i] = &clusterReplica{url: urls[i], svc: svc, srv: srv}
		t.Cleanup(func() { srv.Close() })
	}
	return reps
}

// clusterPost sends one generate request to a replica and returns the
// status, cache header, body and cache key.
func clusterPost(t *testing.T, client *http.Client, base, path string) (int, string, []byte, string) {
	t.Helper()
	resp, err := client.Post(base+path, "", nil)
	if err != nil {
		t.Fatalf("POST %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Coplot-Cache"), body, resp.Header.Get("X-Coplot-Key")
}

// TestClusterAcceptance is the ISSUE-7 acceptance test: three peered
// replicas act as one cache (populate via A, byte-identical cache hits
// via B and C), and a killed replica never causes a client-visible
// error — requests against the survivors degrade to local compute.
func TestClusterAcceptance(t *testing.T) {
	reps := startCluster(t, 3)
	a, b, c := reps[0], reps[1], reps[2]
	client := &http.Client{Timeout: 30 * time.Second}

	paths := []string{
		"/v1/generate?model=downey&procs=64&n=200&seed=9",
		"/v1/generate?model=lublin&procs=64&n=250&seed=3",
		"/v1/generate?model=jann&procs=64&n=150&seed=5",
		"/v1/generate?model=feitelson96&procs=64&n=180&seed=7",
	}

	// Populate exclusively through A, counting the keys A's ring gives
	// to another member: each of those is back-filled to its owner.
	// Ownership follows the kernel-chosen ports, so A may own all four
	// keys; extra paths are populated until one is remotely owned.
	ring := a.svc.backend.(*cluster.Peer).Ring()
	want := make(map[string][]byte, len(paths))
	remote := 0
	populate := func(p string) {
		code, cache, body, key := clusterPost(t, client, a.url, p)
		if code != http.StatusOK {
			t.Fatalf("populate %s: status %d: %s", p, code, body)
		}
		if cache != "miss" {
			t.Fatalf("populate %s: X-Coplot-Cache = %q, want miss", p, cache)
		}
		if ring.Owner(key) != a.url {
			remote++
		}
		want[p] = body
	}
	for _, p := range paths {
		populate(p)
	}
	for seed := 11; remote == 0 && seed <= 51; seed += 2 {
		p := fmt.Sprintf("/v1/generate?model=downey&procs=64&n=200&seed=%d", seed)
		populate(p)
		paths = append(paths, p)
	}
	if remote == 0 {
		t.Fatalf("replica A owns all %d populated keys", len(paths))
	}

	// Every key is now a byte-identical cache hit from B and C,
	// regardless of which replica the ring makes its owner: the owner
	// got it back-filled at compute time, everyone else peer-fills.
	for _, rep := range []*clusterReplica{b, c} {
		for _, p := range paths {
			code, cache, body, _ := clusterPost(t, client, rep.url, p)
			if code != http.StatusOK {
				t.Fatalf("replica %s, %s: status %d", rep.url, p, code)
			}
			if cache != "hit" {
				t.Errorf("replica %s, %s: X-Coplot-Cache = %q, want hit", rep.url, p, cache)
			}
			if !bytes.Equal(body, want[p]) {
				t.Errorf("replica %s, %s: body differs from replica A's", rep.url, p)
			}
		}
	}

	// A's manifest lists the local tier plus one peer tier per remote
	// replica, with one back-fill delivered per remotely owned key.
	m := a.svc.Manifest()
	var peerTiers, fills int
	for _, ts := range m.Storage {
		if strings.HasPrefix(ts.Tier, "peer:") {
			peerTiers++
			fills += int(ts.Fills)
		}
	}
	if peerTiers != 2 {
		t.Errorf("manifest lists %d peer tiers, want 2: %+v", peerTiers, m.Storage)
	}
	if fills != remote {
		t.Errorf("manifest records %d back-fills, want %d (the populated keys another replica owns)", fills, remote)
	}

	// Kill replica C mid-load: concurrent traffic against A and B —
	// repeats of populated keys and fresh keys C may own — must see
	// zero failed requests; peer failures degrade to local compute.
	c.srv.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			targets := []*clusterReplica{a, b}
			for i := 0; i < 4; i++ {
				rep := targets[(w+i)%len(targets)]
				// A populated repeat and a fresh key per iteration.
				repeat := paths[(w+i)%len(paths)]
				code, _, body, _ := clusterPost(t, client, rep.url, repeat)
				if code != http.StatusOK {
					errc <- fmt.Errorf("repeat %s on %s: status %d", repeat, rep.url, code)
					continue
				}
				if !bytes.Equal(body, want[repeat]) {
					errc <- fmt.Errorf("repeat %s on %s: body drifted", repeat, rep.url)
				}
				fresh := fmt.Sprintf("/v1/generate?model=downey&procs=64&n=120&seed=%d", 100+10*w+i)
				if code, _, _, _ := clusterPost(t, client, rep.url, fresh); code != http.StatusOK {
					errc <- fmt.Errorf("fresh %s on %s: status %d", fresh, rep.url, code)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestClusterConfigValidation pins the misconfiguration error: peer
// mode without a matching self is refused at startup, not at runtime.
func TestClusterConfigValidation(t *testing.T) {
	_, err := New(Config{Peers: []string{"http://a:1", "http://b:2"}, Self: "http://c:3"})
	if err == nil {
		t.Fatal("New accepted a cluster config whose self is not a member")
	}
}
