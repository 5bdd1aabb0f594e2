package store

// Tiered layers a Memory tier over a Disk tier: reads try memory
// first and fall back to disk, promoting disk hits back into memory;
// writes go through to both. Memory holds decoded, ready-to-serve
// values bounded by its LRU byte cap, while disk is the authoritative
// record that survives restarts — so Keys and Bytes report the disk
// tier, and evicting from memory never loses an artifact.
type Tiered struct {
	mem  *Memory
	disk *Disk
}

// NewTiered layers mem over disk. Both must be non-nil.
func NewTiered(mem *Memory, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Get implements Backend: a memory hit is served directly; a disk hit
// is promoted into memory (at its encoded size) before returning.
func (t *Tiered) Get(key string) (any, bool) {
	if v, ok := t.mem.Get(key); ok {
		return v, true
	}
	v, size, ok := t.disk.get(key)
	if !ok {
		return nil, false
	}
	t.mem.Put(key, v, size)
	return v, true
}

// Put implements Backend: the artifact is written through to disk and
// inserted into memory. Only memory evictions are reported — a key
// evicted from the memory tier is still resident on disk.
func (t *Tiered) Put(key string, val any, size int64) []string {
	t.disk.Put(key, val, size)
	return t.mem.Put(key, val, size)
}

// Delete implements Backend, removing the artifact from both tiers.
func (t *Tiered) Delete(key string) {
	t.mem.Delete(key)
	t.disk.Delete(key)
}

// Bytes implements Backend, reporting the authoritative disk tier.
func (t *Tiered) Bytes() int64 { return t.disk.Bytes() }

// Keys implements Backend, reporting the authoritative disk tier.
func (t *Tiered) Keys() []string { return t.disk.Keys() }

// Stats implements Backend: the memory tier first, then disk.
func (t *Tiered) Stats() []TierStats {
	return append(t.mem.Stats(), t.disk.Stats()...)
}
