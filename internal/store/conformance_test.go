package store_test

import (
	"bytes"
	"slices"
	"testing"

	"coplot/internal/cluster"
	"coplot/internal/store"
)

// TestBackendConformance runs every Backend through one script: the
// same Put/Get/Delete traffic must give the same answers, keys, bytes
// and top-tier counters whichever tier holds the artifacts. The peer
// tier is a one-member cluster, so it owns every key and never touches
// the network. Tier-specific behaviour (LRU order, the disk scrub,
// corruption eviction, promote-on-hit, peer fills) has its own tests.
func TestBackendConformance(t *testing.T) {
	tiered := func(t *testing.T) store.Backend {
		b, err := store.Open(t.TempDir(), store.RawBytes{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		tiers []string
		open  func(t *testing.T) store.Backend
	}{
		{"memory", []string{"memory"}, func(*testing.T) store.Backend { return store.NewMemory(0) }},
		{"disk", []string{"disk"}, func(t *testing.T) store.Backend {
			d, err := store.NewDisk(t.TempDir(), store.RawBytes{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"tiered", []string{"memory", "disk"}, tiered},
		{"peer", []string{"memory", "disk"}, func(t *testing.T) store.Backend {
			const self = "http://self:1"
			p, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}, Local: tiered(t), Codec: store.RawBytes{}})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { conform(t, c.open(t), c.tiers) })
	}
}

// conform is the conformance script; tiers lists b's Stats tiers, top
// tier first.
func conform(t *testing.T, b store.Backend, tiers []string) {
	check := func(step string, keys []string, size int64) {
		t.Helper()
		if got := b.Keys(); !slices.Equal(got, keys) {
			t.Errorf("%s: Keys = %q, want %q", step, got, keys)
		}
		if got := b.Bytes(); got != size {
			t.Errorf("%s: Bytes = %d, want %d", step, got, size)
		}
	}
	get := func(key, want string) {
		t.Helper()
		v, ok := b.Get(key)
		if want == "" {
			if ok {
				t.Errorf("Get(%s) = %v, want a miss", key, v)
			}
			return
		}
		if got, _ := v.([]byte); !ok || !bytes.Equal(got, []byte(want)) {
			t.Errorf("Get(%s) = %v %v, want %q", key, v, ok, want)
		}
	}
	put := func(key, val string) {
		t.Helper()
		if ev := b.Put(key, []byte(val), int64(len(val))); ev != nil {
			t.Errorf("Put(%s) evicted %q from an uncapped backend", key, ev)
		}
	}

	check("empty", nil, 0)
	get("a", "")
	put("c", "charlie")
	put("a", "alpha")
	put("b", "bravo!")
	get("a", "alpha")
	get("b", "bravo!")
	get("c", "charlie")
	check("after puts", []string{"a", "b", "c"}, 18)

	b.Delete("b")
	get("b", "")
	check("after delete", []string{"a", "c"}, 12)

	put("a", "alpha2") // replacing a key re-counts its bytes
	get("a", "alpha2")
	check("after replace", []string{"a", "c"}, 13)

	st := b.Stats()
	var names []string
	for _, s := range st {
		names = append(names, s.Tier)
	}
	if !slices.Equal(names, tiers) {
		t.Fatalf("Stats tiers = %q, want %q", names, tiers)
	}
	if top := st[0]; top.Hits != 4 || top.Misses != 2 || top.Bytes != 13 || top.Len != 2 {
		t.Errorf("top tier %+v, want 4 hits, 2 misses, 13 bytes, 2 resident", top)
	}
}
