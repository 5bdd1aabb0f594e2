package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// diskMagic versions the on-disk artifact format; bump it when the
// layout changes and old files become unreadable (they are scrubbed on
// startup instead of served).
const diskMagic = "coplot-store1\n"

// artExt is the artifact file suffix; anything else in the cache
// directory is left alone.
const artExt = ".art"

// Disk is the durable storage tier: each artifact is one
// content-addressed file, named by the sha256 of its cache key, in a
// flat cache directory. Writes are atomic (write to a temporary file
// in the same directory, then rename), every file embeds its key and a
// sha256 checksum of the payload, and reads verify both — a truncated,
// corrupted, or colliding file is deleted and reported as a miss
// rather than served. The directory is scanned when the backend opens:
// zero-byte, unreadable, and checksum-failing entries are evicted up
// front, so a crash mid-write can never leave a servable wreck behind.
//
// Artifacts cross the durable boundary through the backend's Codec;
// values the codec declines to encode are simply not persisted.
type Disk struct {
	dir   string
	codec Codec

	mu    sync.Mutex
	sizes map[string]int64 // resident payload bytes by cache key
	bytes int64

	hits, misses, evictions atomic.Uint64
}

// NewDisk opens (creating if needed) the cache directory and scrubs
// invalid entries: zero-byte files, files too short to parse, and
// files whose embedded checksum does not match their payload are
// removed instead of ever being served. A nil codec defaults to
// RawBytes.
func NewDisk(dir string, codec Codec) (*Disk, error) {
	if codec == nil {
		codec = RawBytes{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: cache dir: %w", err)
	}
	d := &Disk{dir: dir, codec: codec, sizes: map[string]int64{}}
	if err := d.scrub(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir reports the backend's cache directory.
func (d *Disk) Dir() string { return d.dir }

// scrub validates every artifact file once at startup, evicting the
// invalid and indexing the rest; leftover temporary files from an
// interrupted write are removed too.
func (d *Disk) scrub() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: scanning cache dir: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		path := filepath.Join(d.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, artExt) {
			continue
		}
		key, payload, err := readArtifact(path)
		if err != nil {
			// Zero-byte, truncated, unreadable, or corrupt: evict now
			// rather than serve it later.
			os.Remove(path)
			d.evictions.Add(1)
			continue
		}
		if fileName(key) != name {
			// The embedded key does not hash to this file name: a
			// renamed or tampered entry. Evict.
			os.Remove(path)
			d.evictions.Add(1)
			continue
		}
		d.sizes[key] = int64(len(payload))
		d.bytes += int64(len(payload))
	}
	return nil
}

// fileName maps a cache key to its sha256-derived artifact file name.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("%x%s", sum, artExt)
}

// encodeArtifact renders the durable file image for (key, payload).
func encodeArtifact(key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(diskMagic)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(key)))
	buf.Write(n[:])
	buf.WriteString(key)
	binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
	buf.Write(n[:])
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	buf.Write(payload)
	return buf.Bytes()
}

// readArtifact parses and verifies one artifact file, returning its
// embedded key and payload. Any structural or checksum mismatch is an
// error; callers treat that as corruption and evict the file.
func readArtifact(path string) (key string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	key, payload, err = decodeArtifact(data)
	if err != nil {
		return "", nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return key, payload, nil
}

// decodeArtifact reverses encodeArtifact: it accepts exactly the images
// encodeArtifact produces and rejects every other input with an error.
func decodeArtifact(data []byte) (key string, payload []byte, err error) {
	if len(data) < len(diskMagic)+8 || string(data[:len(diskMagic)]) != diskMagic {
		return "", nil, errors.New("bad magic")
	}
	rest := data[len(diskMagic):]
	keyLen := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	// Compare without adding to keyLen, which comes from the file and
	// could wrap the sum past zero.
	if len(rest) < 8+sha256.Size || keyLen > uint64(len(rest)-8-sha256.Size) {
		return "", nil, errors.New("truncated header")
	}
	key = string(rest[:keyLen])
	rest = rest[keyLen:]
	payLen := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	want := rest[:sha256.Size]
	rest = rest[sha256.Size:]
	if uint64(len(rest)) != payLen {
		return "", nil, fmt.Errorf("truncated payload (%d of %d bytes)", len(rest), payLen)
	}
	if sum := sha256.Sum256(rest); !bytes.Equal(sum[:], want) {
		return "", nil, errors.New("checksum mismatch")
	}
	return key, rest, nil
}

// Get implements Backend: the artifact file is read, verified, and
// decoded through the codec. Corruption discovered at read time evicts
// the file and reports a miss.
func (d *Disk) Get(key string) (any, bool) {
	v, _, ok := d.get(key)
	return v, ok
}

// get is Get plus the encoded payload size, which the tiered backend
// uses as the promoted artifact's declared size.
func (d *Disk) get(key string) (any, int64, bool) {
	d.mu.Lock()
	if _, ok := d.sizes[key]; !ok {
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, 0, false
	}
	d.mu.Unlock()
	path := filepath.Join(d.dir, fileName(key))
	gotKey, payload, err := readArtifact(path)
	if err != nil || gotKey != key {
		// Corrupt, vanished, or a key collision: evict and miss.
		d.remove(key)
		d.evictions.Add(1)
		d.misses.Add(1)
		return nil, 0, false
	}
	v, err := d.codec.Decode(payload)
	if err != nil {
		d.remove(key)
		d.evictions.Add(1)
		d.misses.Add(1)
		return nil, 0, false
	}
	d.hits.Add(1)
	return v, int64(len(payload)), true
}

// Put implements Backend: values the codec encodes are written
// atomically (temporary file, then rename); everything else is
// silently skipped and stays memory-only in the tier above.
func (d *Disk) Put(key string, val any, size int64) []string {
	payload, ok := d.codec.Encode(val)
	if !ok {
		return nil
	}
	path := filepath.Join(d.dir, fileName(key))
	tmp := path + ".tmp"
	img := encodeArtifact(key, payload)
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		os.Remove(tmp)
		return nil
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil
	}
	d.mu.Lock()
	if old, ok := d.sizes[key]; ok {
		d.bytes -= old
	}
	d.sizes[key] = int64(len(payload))
	d.bytes += int64(len(payload))
	d.mu.Unlock()
	return nil
}

// remove drops key from the index and the directory.
func (d *Disk) remove(key string) {
	d.mu.Lock()
	if size, ok := d.sizes[key]; ok {
		d.bytes -= size
		delete(d.sizes, key)
	}
	d.mu.Unlock()
	os.Remove(filepath.Join(d.dir, fileName(key)))
}

// Delete implements Backend.
func (d *Disk) Delete(key string) { d.remove(key) }

// Len implements Backend.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sizes)
}

// Bytes implements Backend: the total encoded payload bytes resident.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Keys implements Lister: the resident cache keys, sorted.
func (d *Disk) Keys() []string {
	d.mu.Lock()
	out := make([]string, 0, len(d.sizes))
	for k := range d.sizes {
		out = append(out, k)
	}
	d.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats implements StatsProvider.
func (d *Disk) Stats() []TierStats {
	return []TierStats{{
		Tier:      "disk",
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: d.evictions.Load(),
		Len:       d.Len(),
		Bytes:     d.Bytes(),
	}}
}
