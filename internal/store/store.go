// Package store holds the completed artifacts under the engine's
// memoizing single-flight store. Every storage tier implements one
// interface, Backend: an in-memory LRU tier, a durable
// content-addressed disk tier, a tiered memory-over-disk combination
// of the two, and (in internal/cluster) a peer-aware tier over any of
// them. Each tier takes its settings — the memory cap, the directory,
// the codec — when it is built; none changes afterwards.
//
// The split of responsibilities with internal/engine:
//
//   - engine.Store owns the *computation* semantics — single-flight
//     deduplication (each key computes exactly once while concurrent
//     callers wait), eviction of errored entries so the next lookup
//     recomputes,
//     and the obs event stream.
//   - a store.Backend owns the *residency* semantics — which completed
//     artifacts stay, for how long, and where: process memory bounded
//     by an LRU byte cap, sha256-named files on disk that survive
//     restarts, or both layered.
//
// Values cross the Backend boundary as opaque `any` artifacts with a
// declared byte size. The Memory tier keeps them as-is; the durable
// tiers translate them to bytes and back through a Codec, and simply
// decline to persist values their codec cannot encode — such values
// stay memory-resident only, which keeps arbitrary in-process
// artifacts (parsed logs, matrices) and durable byte-renderable ones
// (HTTP responses, rendered reports) behind the same interface.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Backend is one storage tier for completed artifacts. Implementations
// are safe for concurrent use; the single-flight layer above guarantees
// at most one Put per key is in flight, but Gets race freely with Puts
// and Deletes.
type Backend interface {
	// Get returns the artifact under key and marks it recently used.
	Get(key string) (any, bool)
	// Put inserts the artifact with its declared resident size and
	// returns the keys evicted to make room (nil when nothing was).
	// The newly inserted key itself may appear among the evicted when
	// it alone exceeds the tier's capacity.
	Put(key string, val any, size int64) (evicted []string)
	// Delete removes the artifact under key, if resident.
	Delete(key string)
	// Keys returns every resident key, sorted, as a fresh slice. The
	// corpus recovers its entries after a restart by listing the
	// "corpus-" keys, without a manifest file of its own.
	Keys() []string
	// Bytes reports the total declared size of resident artifacts.
	Bytes() int64
	// Stats returns one entry per storage tier, top tier first; the
	// serving layer surfaces them on /metrics.
	Stats() []TierStats
}

// TierStats is one storage tier's traffic and residency counters. The
// run manifest lists them as they are (obs.Manifest.Storage), so the
// JSON names below are the /metrics "storage" schema.
type TierStats struct {
	// Tier names the layer: "memory", "disk" or "peer:<url>".
	Tier string `json:"tier"`
	// Hits counts Gets answered by this tier.
	Hits uint64 `json:"hits"`
	// Misses counts Gets this tier could not answer.
	Misses uint64 `json:"misses"`
	// Evictions counts artifacts dropped by this tier: LRU victims in
	// memory, scrubbed or corrupt entries on disk.
	Evictions uint64 `json:"evictions"`
	// Fills counts artifacts pushed into this tier from outside the
	// local Get/Put path — today, cluster back-fills accepted from a
	// non-owner replica or delivered to a peer. Zero for plain tiers.
	Fills uint64 `json:"fills,omitempty"`
	// Errors counts failed interactions with this tier — today,
	// cluster peer fetches or back-fills that errored (timeout,
	// checksum mismatch, transport failure). Zero for plain tiers.
	Errors uint64 `json:"errors,omitempty"`
	// Len is the tier's resident artifact count.
	Len int `json:"len"`
	// Bytes is the tier's resident byte total.
	Bytes int64 `json:"bytes"`
}

// Codec translates artifacts to durable bytes and back, so a byte-
// oriented tier can hold typed values. Encode reports false for values
// the codec does not handle — the durable tier skips those instead of
// failing the Put.
type Codec interface {
	// Encode renders v as its durable bytes, or reports false when v is
	// not byte-renderable under this codec.
	Encode(v any) ([]byte, bool)
	// Decode reverses Encode.
	Decode(data []byte) (any, error)
}

// RawBytes is the identity Codec: []byte values persist as themselves;
// everything else stays memory-only.
type RawBytes struct{}

// Encode implements Codec.
func (RawBytes) Encode(v any) ([]byte, bool) {
	b, ok := v.([]byte)
	return b, ok
}

// Decode implements Codec.
func (RawBytes) Decode(data []byte) (any, error) { return data, nil }

// Open builds the backend for coplotd's -cache-dir flag: an empty dir
// is a memory cache, any other is a memory tier over a disk tier
// rooted at dir whose files codec writes and reads. memLimit caps the
// memory tier's resident bytes (<=0 = unbounded).
func Open(dir string, codec Codec, memLimit int64) (Backend, error) {
	if dir == "" {
		return NewMemory(memLimit), nil
	}
	disk, err := NewDisk(dir, codec)
	if err != nil {
		return nil, err
	}
	return NewTiered(NewMemory(memLimit), disk), nil
}

// Key derives a deterministic content-hash cache key: a sha256 over
// the namespace, its canonicalized options, and the input blobs, each
// length-prefixed so concatenations cannot collide. The result is
// "namespace-" plus 32 hex digits — the serving layer keys responses
// and corpus entries with it.
func Key(namespace string, opts []string, blobs ...[]byte) string {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(namespace))
	for _, o := range opts {
		put([]byte(o))
	}
	for _, b := range blobs {
		put(b)
	}
	return namespace + "-" + hex.EncodeToString(h.Sum(nil))[:32]
}
