// Package cluster makes N coplotd replicas act as one cache. It layers
// a peer-aware store.Backend (Peer) over each replica's local backend:
// a consistent-hash Ring maps every content key to exactly one owner
// replica, a local miss first attempts a peer fill from the owner
// (GET /internal/v1/artifact/{key}, checksummed like the disk tier)
// before the caller recomputes, and a computed artifact whose owner is
// another replica is synchronously back-filled to it (PUT on the same
// path) so the next miss anywhere in the cluster finds it.
//
// The design leans entirely on the repo's determinism contract: every
// artifact is a pure function of its content-hash key, so a back-fill
// can never conflict with what the owner would have computed itself —
// replicas exchanging artifacts is pure work-avoidance, never a
// consistency hazard. That is also why every failure path degrades to
// local compute: a dead or slow peer costs at most the configured
// per-attempt timeouts and then the replica computes the artifact
// itself, byte-identical to what the peer would have served. Peers are
// an optimization tier, not a dependency.
//
// Peer is a store.Backend like the tiers it wraps, so the engine's
// single-flight store and the serving layer use it with no semantic
// changes: to them it is just a backend whose Get is sometimes
// answered over the network. Keys and Bytes report the local backend;
// Stats lists the local tiers followed by one "peer:<url>" tier per
// remote replica with its hit/miss/fill/error counters.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"coplot/internal/rng"
	"coplot/internal/store"
)

// Limits of the peer traffic.
const (
	// DefaultTimeout bounds one peer HTTP attempt when Config.Timeout
	// is not positive.
	DefaultTimeout = 2 * time.Second
	// DefaultMaxFetchBytes caps the size of one fetched artifact.
	DefaultMaxFetchBytes = 256 << 20
)

// jitterSeed drives the deterministic retry-backoff jitter of peer
// operations.
const jitterSeed = 7

// Bounds of the retry backoff between peer attempts.
const (
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// backoff returns the delay before retrying the peer operation named
// key after its failed attempt (1-based): baseBackoff·2^(attempt-1),
// capped at maxBackoff, scaled by a deterministic equal-jitter factor
// in [0.5, 1.0) derived from (jitterSeed, key, attempt).
func backoff(key string, attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	u := rng.New(rng.Derive(jitterSeed, fmt.Sprintf("backoff:%s#%d", key, attempt))).Float64()
	return time.Duration((0.5 + 0.5*u) * float64(d))
}

// ArtifactPathPrefix is the URL prefix of the peer-fill protocol; the
// key follows it. The serving layer mounts the Handler at
// "GET|PUT ArtifactPathPrefix{key}".
const ArtifactPathPrefix = "/internal/v1/artifact/"

// Protocol headers. HeaderSum carries the sha256 hex digest of the
// response or request body — the wire analogue of the disk tier's
// per-record checksum — and HeaderKey echoes the artifact key so a
// misrouted response is detected.
const (
	// HeaderSum is the sha256 hex digest of the artifact body.
	HeaderSum = "X-Coplot-Sum"
	// HeaderKey echoes the artifact key the body belongs to.
	HeaderKey = "X-Coplot-Key"
)

// Config assembles a Peer backend.
type Config struct {
	// Self is this replica's own base URL exactly as it appears in
	// Peers (normalization is applied to both).
	Self string
	// Peers is the full cluster member list, including Self; every
	// replica must be started with the same set for ring ownership to
	// agree.
	Peers []string
	// Timeout bounds each peer HTTP attempt; non-positive means
	// DefaultTimeout.
	Timeout time.Duration
	// Retries is how many extra attempts follow a failed peer fetch or
	// back-fill (0 = single attempt). Retries are spaced by a
	// deterministic exponential backoff with seeded jitter.
	Retries int
	// Local is the backend peers fill into and back-fills are read
	// from — typically the Tiered memory-over-disk backend. Required.
	Local store.Backend
	// Codec translates artifacts to wire bytes and back; it must match
	// the codec every other replica uses. Values the codec declines
	// stay local and are never exchanged. Required.
	Codec store.Codec
}

// Peer is the peer-aware storage tier: store.Backend over the local
// backend plus the cluster's other replicas. All methods are safe for
// concurrent use.
type Peer struct {
	self     string
	ring     *Ring
	local    store.Backend
	codec    store.Codec
	client   *http.Client
	timeout  time.Duration
	attempts int

	order []string              // peer URLs (excluding self), sorted
	stats map[string]*peerStats // keyed by peer URL
}

// peerStats is one remote peer's traffic counters.
type peerStats struct {
	hits   atomic.Uint64 // fetches the peer answered with the artifact
	misses atomic.Uint64 // fetches the peer answered 404
	fills  atomic.Uint64 // back-fills the peer accepted
	errors atomic.Uint64 // failed attempts against the peer
}

// New builds the Peer tier from cfg. It fails when Local is missing,
// the member list is empty, or Self is not among Peers — ownership
// only works when every replica routes over the same member set it
// belongs to.
func New(cfg Config) (*Peer, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: Config.Local backend is required")
	}
	ring, err := NewRing(cfg.Peers, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	self := NormalizeMember(cfg.Self)
	members := ring.Members()
	found := false
	for _, m := range members {
		if m == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not among the peers %v", self, members)
	}
	p := &Peer{
		self:     self,
		ring:     ring,
		local:    cfg.Local,
		codec:    cfg.Codec,
		client:   &http.Client{},
		timeout:  cfg.Timeout,
		attempts: cfg.Retries + 1,
		stats:    map[string]*peerStats{},
	}
	if p.timeout <= 0 {
		p.timeout = DefaultTimeout
	}
	if p.attempts < 1 {
		p.attempts = 1
	}
	for _, m := range members {
		if m == self {
			continue
		}
		p.order = append(p.order, m)
		p.stats[m] = &peerStats{}
	}
	return p, nil
}

// Ring returns the ring the Peer routes over.
func (p *Peer) Ring() *Ring { return p.ring }

// Get implements store.Backend. A local hit is served as-is. On a
// local miss, if another replica owns the key, Get attempts a peer
// fill from the owner; a fetched artifact is promoted into the local
// backend before returning, so repeats are local hits. Any peer
// failure — dead owner, timeout, checksum mismatch — reports a plain
// miss, which makes the caller recompute locally: peers can only speed
// a lookup up, never fail it.
func (p *Peer) Get(key string) (any, bool) {
	if v, ok := p.local.Get(key); ok {
		return v, true
	}
	owner := p.ring.Owner(key)
	if owner == p.self {
		return nil, false
	}
	v, size, ok := p.fetch(owner, key)
	if !ok {
		return nil, false
	}
	p.local.Put(key, v, size)
	return v, true
}

// Put implements store.Backend: the artifact lands in the local
// backend, and when another replica owns the key it is synchronously
// back-filled there (best effort — a failed back-fill only costs the
// owner a future recompute). Synchronous delivery means that once a
// Put returns, a lookup through ANY replica finds the artifact — the
// property the cluster acceptance test pins down. Values the codec
// declines stay local. The evicted keys are the local backend's.
func (p *Peer) Put(key string, val any, size int64) []string {
	evicted := p.local.Put(key, val, size)
	if owner := p.ring.Owner(key); owner != p.self {
		p.backfill(owner, key, val)
	}
	return evicted
}

// Delete implements store.Backend, removing the artifact from the
// local backend only. Deletions do not propagate through the Peer:
// its only caller is corpus.Delete, which the serving layer runs on
// every replica by broadcasting the corpus DELETE itself.
func (p *Peer) Delete(key string) { p.local.Delete(key) }

// Keys implements store.Backend, reporting the locally resident keys
// only — the ring is never enumerated. Layers that need a cluster-wide
// view (the corpus index) merge each replica's local listing
// themselves.
func (p *Peer) Keys() []string { return p.local.Keys() }

// Bytes implements store.Backend, reporting the local backend's total.
func (p *Peer) Bytes() int64 { return p.local.Bytes() }

// Stats implements store.Backend: the local backend's tiers first,
// then one "peer:<url>" entry per remote replica in sorted URL order —
// Hits are fetches the peer answered, Misses its 404s, Fills
// back-fills it accepted, Errors failed attempts against it.
func (p *Peer) Stats() []store.TierStats {
	out := p.local.Stats()
	for _, u := range p.order {
		st := p.stats[u]
		out = append(out, store.TierStats{
			Tier:   "peer:" + u,
			Hits:   st.hits.Load(),
			Misses: st.misses.Load(),
			Fills:  st.fills.Load(),
			Errors: st.errors.Load(),
		})
	}
	return out
}

// artifactURL builds the peer-fill URL for key on member base.
func artifactURL(base, key string) string {
	return base + ArtifactPathPrefix + url.PathEscape(key)
}

// fetch retrieves key from owner with up to p.attempts tries, spacing
// retries by the deterministic backoff. It returns the decoded
// artifact and its wire size, or false on definitive miss (owner
// answered 404) or after the attempts are exhausted.
func (p *Peer) fetch(owner, key string) (any, int64, bool) {
	st := p.stats[owner]
	for attempt := 1; attempt <= p.attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff("peer-fetch:"+key, attempt-1))
		}
		v, size, found, err := p.fetchOnce(owner, key)
		if err != nil {
			st.errors.Add(1)
			continue
		}
		if !found {
			st.misses.Add(1)
			return nil, 0, false
		}
		st.hits.Add(1)
		return v, size, true
	}
	return nil, 0, false
}

// fetchOnce is one GET attempt against owner for key: it verifies the
// key echo and body checksum and decodes the artifact. found is false
// (with nil error) when the owner answered 404.
func (p *Peer) fetchOnce(owner, key string) (v any, size int64, found bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, artifactURL(owner, key), nil)
	if err != nil {
		return nil, 0, false, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, 0, false, nil
	case resp.StatusCode != http.StatusOK:
		return nil, 0, false, fmt.Errorf("cluster: peer %s answered %s for %s", owner, resp.Status, key)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxFetchBytes+1))
	if err != nil {
		return nil, 0, false, err
	}
	if int64(len(body)) > DefaultMaxFetchBytes {
		return nil, 0, false, fmt.Errorf("cluster: artifact %s from %s exceeds %d bytes", key, owner, DefaultMaxFetchBytes)
	}
	if got := resp.Header.Get(HeaderKey); got != key {
		return nil, 0, false, fmt.Errorf("cluster: peer %s echoed key %q, want %q", owner, got, key)
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get(HeaderSum); got != hex.EncodeToString(sum[:]) {
		return nil, 0, false, fmt.Errorf("cluster: checksum mismatch for %s from %s", key, owner)
	}
	val, err := p.codec.Decode(body)
	if err != nil {
		return nil, 0, false, fmt.Errorf("cluster: decoding %s from %s: %w", key, owner, err)
	}
	return val, int64(len(body)), true, nil
}

// backfill delivers key's artifact to its owner with up to p.attempts
// tries. Failures are counted and swallowed: the owner just recomputes
// on its next miss.
func (p *Peer) backfill(owner, key string, val any) {
	data, ok := p.codec.Encode(val)
	if !ok {
		return // memory-only artifact; cannot travel
	}
	st := p.stats[owner]
	sum := sha256.Sum256(data)
	hexSum := hex.EncodeToString(sum[:])
	for attempt := 1; attempt <= p.attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff("peer-fill:"+key, attempt-1))
		}
		if err := p.putOnce(owner, key, data, hexSum); err != nil {
			st.errors.Add(1)
			continue
		}
		st.fills.Add(1)
		return
	}
}

// putOnce is one PUT attempt delivering data (with its checksum) to
// owner under key. Any non-2xx answer is an error.
func (p *Peer) putOnce(owner, key string, data []byte, hexSum string) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, artifactURL(owner, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set(HeaderSum, hexSum)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: peer %s answered %s for back-fill of %s", owner, resp.Status, key)
	}
	return nil
}
