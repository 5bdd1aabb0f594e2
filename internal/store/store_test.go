package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyDeterministicAndDistinct(t *testing.T) {
	k1 := Key("analyze", []string{"jobs=2"}, []byte("data"))
	k2 := Key("analyze", []string{"jobs=2"}, []byte("data"))
	if k1 != k2 {
		t.Fatalf("same inputs produced different keys: %q vs %q", k1, k2)
	}
	if !strings.HasPrefix(k1, "analyze-") || len(k1) != len("analyze-")+32 {
		t.Fatalf("unexpected key shape: %q", k1)
	}
	// Length prefixes must keep field boundaries from colliding.
	if Key("a", []string{"bc"}) == Key("ab", []string{"c"}) {
		t.Fatal("boundary shift collided")
	}
	if Key("a", nil, []byte("xy"), []byte("z")) == Key("a", nil, []byte("x"), []byte("yz")) {
		t.Fatal("blob boundary shift collided")
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(100)
	m.Put("a", "A", 40)
	m.Put("b", "B", 40)
	// Touch a so b becomes the LRU victim.
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	evicted := m.Put("c", "C", 40)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("b still resident after eviction")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if m.Len() != 2 || m.Bytes() != 80 {
		t.Fatalf("Len=%d Bytes=%d, want 2/80", m.Len(), m.Bytes())
	}
}

func TestMemoryOversizedSelfEvicts(t *testing.T) {
	m := NewMemory(10)
	evicted := m.Put("big", "B", 1000)
	if len(evicted) != 1 || evicted[0] != "big" {
		t.Fatalf("evicted = %v, want [big]", evicted)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d after self-eviction, want 0/0", m.Len(), m.Bytes())
	}
}

func TestMemoryZeroSizeExemptFromCap(t *testing.T) {
	m := NewMemory(10)
	for i := 0; i < 5; i++ {
		if ev := m.Put(fmt.Sprintf("k%d", i), i, 0); ev != nil {
			t.Fatalf("zero-size put evicted %v", ev)
		}
	}
	if m.Len() != 5 || m.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d, want 5/0", m.Len(), m.Bytes())
	}
}

func TestMemoryRePutRefreshes(t *testing.T) {
	m := NewMemory(100)
	m.Put("a", "A1", 40)
	m.Put("b", "B", 40)
	m.Put("a", "A2", 40) // refresh a: b is now LRU
	evicted := m.Put("c", "C", 40)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	v, ok := m.Get("a")
	if !ok || v != "A2" {
		t.Fatalf("Get(a) = %v %v, want A2 true", v, ok)
	}
}

func TestMemoryStats(t *testing.T) {
	m := NewMemory(0)
	m.Put("a", 1, 8)
	m.Get("a")
	m.Get("missing")
	st := m.Stats()
	if len(st) != 1 || st[0].Tier != "memory" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Hits != 1 || st[0].Misses != 1 || st[0].Len != 1 || st[0].Bytes != 8 {
		t.Fatalf("counters = %+v", st[0])
	}
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("test", nil, []byte("payload"))
	body := []byte("the rendered artifact body")
	d.Put(key, body, int64(len(body)))
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got.([]byte), body) {
		t.Fatalf("round trip failed: %v %v", got, ok)
	}

	// Reopen: the artifact must survive the "restart".
	d2, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 || d2.Bytes() != int64(len(body)) {
		t.Fatalf("after reopen Len=%d Bytes=%d, want 1/%d", d2.Len(), d2.Bytes(), len(body))
	}
	got, ok = d2.Get(key)
	if !ok || !bytes.Equal(got.([]byte), body) {
		t.Fatalf("reopened get failed: %v %v", got, ok)
	}
}

func TestDiskSkipsNonEncodable(t *testing.T) {
	d, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", struct{ X int }{1}, 8) // RawBytes declines non-[]byte
	if d.Len() != 0 {
		t.Fatalf("non-encodable value was persisted: Len=%d", d.Len())
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("got a value that should not have persisted")
	}
}

// TestDiskScrubsInvalidEntries is the regression test for the startup
// scrub satellite: zero-byte and truncated cache files must be evicted
// when the backend opens, not served.
func TestDiskScrubsInvalidEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := Key("keep", nil, []byte("good"))
	trunc := Key("trunc", nil, []byte("bad"))
	zero := Key("zero", nil, []byte("empty"))
	d.Put(keep, []byte("good body"), 9)
	d.Put(trunc, []byte("soon to be truncated"), 20)

	// Truncate one valid artifact mid-payload and plant a zero-byte one,
	// as a crash mid-write (without the atomic rename) would.
	truncPath := filepath.Join(dir, fileName(trunc))
	img, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, img[:len(img)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(zero)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// And an orphaned tmp file from an interrupted write.
	if err := os.WriteFile(filepath.Join(dir, fileName(zero)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("Len after scrub = %d, want 1", d2.Len())
	}
	if _, ok := d2.Get(trunc); ok {
		t.Fatal("truncated entry served after scrub")
	}
	if _, ok := d2.Get(zero); ok {
		t.Fatal("zero-byte entry served after scrub")
	}
	if v, ok := d2.Get(keep); !ok || string(v.([]byte)) != "good body" {
		t.Fatalf("valid entry lost in scrub: %v %v", v, ok)
	}
	st := d2.Stats()
	if st[0].Evictions != 2 {
		t.Fatalf("scrub evictions = %d, want 2", st[0].Evictions)
	}
	if _, err := os.Stat(truncPath); !os.IsNotExist(err) {
		t.Fatal("truncated file still on disk after scrub")
	}
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("orphaned tmp file survived scrub: %s", de.Name())
		}
	}
}

// A key length near 2^64 must not wrap the header bounds check: the
// record is evicted at startup instead of panicking NewDisk.
func TestDiskScrubsWrappedKeyLength(t *testing.T) {
	dir := t.TempDir()
	key := Key("wrap", nil, []byte("x"))
	img := append([]byte(diskMagic), make([]byte, 8)...)
	binary.BigEndian.PutUint64(img[len(diskMagic):], math.MaxUint64-39) // 2^64-40: keyLen+8+32 wraps to 0
	path := filepath.Join(dir, fileName(key))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("wrapped-length record still on disk after scrub")
	}
	if st := d.Stats(); st[0].Evictions != 1 {
		t.Fatalf("scrub evictions = %d, want 1", st[0].Evictions)
	}
	if _, ok := d.Get(key); ok {
		t.Fatal("wrapped-length record served")
	}
}

func TestDiskEvictsCorruptionOnRead(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("corrupt", nil, []byte("x"))
	d.Put(key, []byte("original body"), 13)

	// Flip a payload byte behind the backend's back.
	path := filepath.Join(dir, fileName(key))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(key); ok {
		t.Fatal("corrupt artifact served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not removed after failed read")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after corruption eviction, want 0", d.Len())
	}
}

func TestTieredPromoteAndWriteThrough(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTiered(NewMemory(0), disk)
	key := Key("t", nil, []byte("v"))
	body := []byte("tiered body")
	tr.Put(key, body, int64(len(body)))

	// Write-through: resident in both tiers.
	if tr.mem.Len() != 1 || tr.disk.Len() != 1 {
		t.Fatalf("mem=%d disk=%d after put, want 1/1", tr.mem.Len(), tr.disk.Len())
	}

	// Drop it from memory; a Get must fall back to disk and promote.
	tr.mem.Delete(key)
	v, ok := tr.Get(key)
	if !ok || !bytes.Equal(v.([]byte), body) {
		t.Fatalf("disk fallback failed: %v %v", v, ok)
	}
	if tr.mem.Len() != 1 {
		t.Fatal("disk hit not promoted into memory")
	}
	// The promoted copy now serves from memory.
	if v, ok := tr.mem.Get(key); !ok || !bytes.Equal(v.([]byte), body) {
		t.Fatalf("promoted copy wrong: %v %v", v, ok)
	}

	st := tr.Stats()
	if len(st) != 2 || st[0].Tier != "memory" || st[1].Tier != "disk" {
		t.Fatalf("stats tiers = %+v", st)
	}

	tr.Delete(key)
	if tr.Len() != 0 || tr.mem.Len() != 0 {
		t.Fatal("delete left residue")
	}
}

func TestTieredNonEncodableStaysInMemory(t *testing.T) {
	disk, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTiered(NewMemory(0), disk)
	type parsed struct{ N int }
	tr.Put("k", parsed{42}, 16)
	if tr.disk.Len() != 0 {
		t.Fatal("non-encodable value reached disk")
	}
	v, ok := tr.Get("k")
	if !ok || v.(parsed).N != 42 {
		t.Fatalf("memory-only value lost: %v %v", v, ok)
	}
}
