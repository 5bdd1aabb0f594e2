package store

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// Memory is the in-process storage tier: artifacts held as live Go
// values on an LRU list, optionally bounded by a byte cap over their
// declared sizes. Zero-size artifacts never count against the cap (but
// are still evictable once the total exceeds it), a Get or re-Put
// refreshes recency, and an artifact larger than the whole cap evicts
// itself immediately.
type Memory struct {
	mu      sync.Mutex
	entries map[string]*memEntry
	lru     *list.List // most recently used at front
	limit   int64      // byte cap over declared sizes; <=0 = unbounded
	bytes   int64

	hits, misses, evictions atomic.Uint64
}

type memEntry struct {
	key  string
	val  any
	size int64
	elem *list.Element
}

// NewMemory returns an empty memory tier capped at limit bytes
// (<=0 = unbounded).
func NewMemory(limit int64) *Memory {
	return &Memory{entries: map[string]*memEntry{}, lru: list.New(), limit: limit}
}

// Get implements Backend: a hit marks the artifact most recently used.
func (m *Memory) Get(key string) (any, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		m.mu.Unlock()
		m.misses.Add(1)
		return nil, false
	}
	m.lru.MoveToFront(e.elem)
	val := e.val
	m.mu.Unlock()
	m.hits.Add(1)
	return val, true
}

// Put implements Backend: the artifact is inserted most recently used,
// then least-recently-used artifacts are evicted until the declared
// byte total fits the cap again. Re-putting a resident key replaces
// its value and refreshes its recency.
func (m *Memory) Put(key string, val any, size int64) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		m.bytes -= old.size
		m.lru.Remove(old.elem)
		delete(m.entries, key)
	}
	e := &memEntry{key: key, val: val, size: size}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.bytes += size
	evicted := m.evictOverLimit()
	m.evictions.Add(uint64(len(evicted)))
	return evicted
}

// evictOverLimit drops least-recently-used artifacts until the declared
// bytes fit the limit, returning the evicted keys. Callers hold m.mu.
// The newest artifact is evicted last, when it alone exceeds the cap.
func (m *Memory) evictOverLimit() []string {
	if m.limit <= 0 {
		return nil
	}
	var evicted []string
	for m.bytes > m.limit && m.lru.Len() > 0 {
		back := m.lru.Back()
		e := back.Value.(*memEntry)
		m.lru.Remove(back)
		m.bytes -= e.size
		delete(m.entries, e.key)
		evicted = append(evicted, e.key)
	}
	return evicted
}

// Delete implements Backend.
func (m *Memory) Delete(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.bytes -= e.size
		m.lru.Remove(e.elem)
		delete(m.entries, key)
	}
}

// Len reports how many artifacts are resident.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Bytes implements Backend.
func (m *Memory) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Keys implements Backend: the resident cache keys, sorted.
func (m *Memory) Keys() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats implements Backend with the one "memory" tier.
func (m *Memory) Stats() []TierStats {
	return []TierStats{{
		Tier:      "memory",
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Len:       m.Len(),
		Bytes:     m.Bytes(),
	}}
}
