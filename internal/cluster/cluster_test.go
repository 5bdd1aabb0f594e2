package cluster_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coplot/internal/cluster"
	"coplot/internal/store"
)

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	ref, err := cluster.NewRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("generate-%032d", i)
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), members...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Trailing slashes and duplicates must not change the ring.
		shuffled = append(shuffled, members[trial%len(members)]+"/")
		ring, err := cluster.NewRing(shuffled, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, want := ring.Owner(k), ref.Owner(k); got != want {
				t.Fatalf("trial %d: Owner(%q) = %q, reference says %q", trial, k, got, want)
			}
		}
	}
}

func TestRingBalanceAndSingleMember(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	ring, err := cluster.NewRing(members, 0) // 0 → DefaultVNodes
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[ring.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, m := range members {
		if frac := float64(counts[m]) / n; frac < 0.10 {
			t.Errorf("member %s owns only %.1f%% of keys; ring badly unbalanced: %v", m, frac*100, counts)
		}
	}
	solo, err := cluster.NewRing([]string{"http://only:1"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := solo.Owner(fmt.Sprintf("key-%d", i)); got != "http://only:1" {
			t.Fatalf("single-member ring routed %q elsewhere: %q", fmt.Sprintf("key-%d", i), got)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := cluster.New(cluster.Config{Peers: []string{"http://a:1"}, Self: "http://a:1"}); err == nil {
		t.Error("New accepted a nil Local backend")
	}
	if _, err := cluster.New(cluster.Config{Local: store.NewMemory(0)}); err == nil {
		t.Error("New accepted an empty member list")
	}
	cfg := cluster.Config{
		Local: store.NewMemory(0),
		Peers: []string{"http://a:1", "http://b:2"},
		Self:  "http://elsewhere:9",
	}
	if _, err := cluster.New(cfg); err == nil {
		t.Error("New accepted a self outside the peer list")
	}
}

// replica is one in-process cluster member for unit tests: a local
// memory backend behind the artifact-exchange handler.
type replica struct {
	local *store.Memory
	srv   *httptest.Server
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	local := store.NewMemory(0)
	mux := http.NewServeMux()
	h := cluster.NewHandler(local, store.RawBytes{}, 0)
	mux.Handle("GET "+cluster.ArtifactPathPrefix+"{key}", h)
	mux.Handle("PUT "+cluster.ArtifactPathPrefix+"{key}", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &replica{local: local, srv: srv}
}

// peerFor builds the Peer tier for one replica of a two-member ring.
func peerFor(t *testing.T, self *replica, all []*replica) *cluster.Peer {
	t.Helper()
	urls := make([]string, len(all))
	for i, r := range all {
		urls[i] = r.srv.URL
	}
	p, err := cluster.New(cluster.Config{
		Self:    self.srv.URL,
		Peers:   urls,
		Timeout: 2 * time.Second,
		Local:   self.local,
		Codec:   store.RawBytes{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// keyOwnedBy probes for a key the ring assigns to owner.
func keyOwnedBy(t *testing.T, p *cluster.Peer, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if p.Ring().Owner(k) == cluster.NormalizeMember(owner) {
			return k
		}
	}
	t.Fatal("no key owned by", owner)
	return ""
}

func TestPeerBackfillAndFetch(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	all := []*replica{a, b}
	pa, pb := peerFor(t, a, all), peerFor(t, b, all)

	// A computes an artifact B owns: the Put back-fills B synchronously.
	keyB := keyOwnedBy(t, pa, b.srv.URL)
	val := []byte("artifact-bytes")
	pa.Put(keyB, val, int64(len(val)))
	if _, ok := b.local.Get(keyB); !ok {
		t.Fatal("back-fill did not land in the owner's local backend")
	}
	// B serves it locally through its own Peer tier.
	if v, ok := pb.Get(keyB); !ok || string(v.([]byte)) != string(val) {
		t.Fatalf("owner Get = %v, %v; want the back-filled bytes", v, ok)
	}

	// A loses its local copy; a Get refetches from the owner and
	// promotes the artifact back into A's local backend.
	a.local.Delete(keyB)
	if v, ok := pa.Get(keyB); !ok || string(v.([]byte)) != string(val) {
		t.Fatalf("peer-fill Get = %v, %v; want the owner's bytes", v, ok)
	}
	if _, ok := a.local.Get(keyB); !ok {
		t.Fatal("fetched artifact was not promoted into the local backend")
	}

	// A key A owns stays local on Put and is fetchable by B.
	keyA := keyOwnedBy(t, pa, a.srv.URL)
	pa.Put(keyA, []byte("local"), 5)
	if _, ok := b.local.Get(keyA); ok {
		t.Fatal("self-owned Put must not back-fill a peer")
	}
	if _, ok := pb.Get(keyA); !ok {
		t.Fatal("peer fetch of A-owned key through B failed")
	}

	// A key nobody computed is a definitive miss everywhere.
	if _, ok := pa.Get(keyOwnedBy(t, pa, b.srv.URL) + "-absent"); ok {
		t.Fatal("Get of an absent key reported a hit")
	}

	stats := pa.Stats()
	var peerTiers int
	for _, ts := range stats {
		if !strings.HasPrefix(ts.Tier, "peer:") {
			continue
		}
		peerTiers++
		if ts.Tier == "peer:"+b.srv.URL {
			if ts.Fills < 1 || ts.Hits < 1 {
				t.Errorf("peer:%s stats = %+v; want fills and hits counted", b.srv.URL, ts)
			}
		}
	}
	if peerTiers != 1 {
		t.Errorf("Stats lists %d peer tiers, want 1 (self excluded)", peerTiers)
	}
}

func TestPeerDegradesWhenOwnerDead(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	urls := []string{a.srv.URL, b.srv.URL}
	b.srv.Close() // owner is down before any traffic

	pa, err := cluster.New(cluster.Config{
		Self:    a.srv.URL,
		Peers:   urls,
		Timeout: 100 * time.Millisecond,
		Retries: 1,
		Local:   a.local,
		Codec:   store.RawBytes{},
	})
	if err != nil {
		t.Fatal(err)
	}

	keyB := keyOwnedBy(t, pa, b.srv.URL)
	start := time.Now()
	if _, ok := pa.Get(keyB); ok {
		t.Fatal("Get against a dead owner reported a hit")
	}
	// Put must still succeed locally; the failed back-fill is swallowed.
	pa.Put(keyB, []byte("x"), 1)
	if _, ok := a.local.Get(keyB); !ok {
		t.Fatal("Put with a dead owner lost the local copy")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-peer degradation took %v; want fast local fallback", elapsed)
	}
	for _, ts := range pa.Stats() {
		if ts.Tier == "peer:"+b.srv.URL && ts.Errors == 0 {
			t.Errorf("dead peer recorded no errors: %+v", ts)
		}
	}
}

func TestPeerRejectsCorruptFetch(t *testing.T) {
	a := newReplica(t)
	// A "peer" that serves a body whose checksum header lies.
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.HeaderKey, strings.TrimPrefix(r.URL.Path, cluster.ArtifactPathPrefix))
		w.Header().Set(cluster.HeaderSum, "deadbeef")
		w.Write([]byte("tampered"))
	}))
	defer corrupt.Close()

	pa, err := cluster.New(cluster.Config{
		Self:    a.srv.URL,
		Peers:   []string{a.srv.URL, corrupt.URL},
		Timeout: time.Second,
		Local:   a.local,
		Codec:   store.RawBytes{},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, pa, corrupt.URL)
	if _, ok := pa.Get(key); ok {
		t.Fatal("checksum-mismatched fetch was accepted")
	}
	if _, ok := a.local.Get(key); ok {
		t.Fatal("corrupt artifact was promoted into the local backend")
	}
	for _, ts := range pa.Stats() {
		if ts.Tier == "peer:"+corrupt.URL && ts.Errors == 0 {
			t.Errorf("corrupt fetch recorded no error: %+v", ts)
		}
	}
}

func TestHandlerVerifiesBackfills(t *testing.T) {
	rep := newReplica(t)
	client := rep.srv.Client()

	// A back-fill whose checksum does not match the body is rejected
	// and never touches the backend.
	req, err := http.NewRequest(http.MethodPut, rep.srv.URL+cluster.ArtifactPathPrefix+"k1", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderSum, "0000")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt back-fill answered %s, want 400", resp.Status)
	}
	if rep.local.Len() != 0 {
		t.Fatal("corrupt back-fill reached the backend")
	}

	// A GET for an absent key is a plain 404.
	getResp, err := client.Get(rep.srv.URL + cluster.ArtifactPathPrefix + "missing")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent-key GET answered %s, want 404", getResp.Status)
	}
}
