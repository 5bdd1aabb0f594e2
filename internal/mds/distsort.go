package mds

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// distSortSmall is the largest bucket the kernel leaves to its final
// insertion pass; a larger bucket is re-bucketed on its own range.
const distSortSmall = 32

// distSortDepth bounds the re-bucketing: a bucket still oversize after
// this many passes below the first is stably comparison-sorted on its
// own. Every pass splits its range into as many buckets as it has
// keys, so only a near-geometric spread of values gets this deep.
const distSortDepth = 4

// maxOrderedBits is math.Float64bits(+Inf). A float64 whose bit pattern
// is at most this is +0, positive or +Inf; anything above is negative
// (sign bit set, −0 included) or NaN — the values the kernel refuses.
const maxOrderedBits = 0x7FF0000000000000

// distSorter is the solver's one sort kernel, behind the rank image,
// flattenPairs' pair order and alienationFast's ranking of d: a stable
// distribution sort of non-negative float64 keys. A pass over keys in
// [lo, hi] maps each key to bucket uint32((v−lo)·nb/(hi−lo)) with nb
// the pass's key count. The map is monotone in v (every step of it
// rounds monotonically), so a smaller bucket holds only smaller keys.
// A counting scatter in input order fills the buckets, which keeps
// equal keys in input order; a bucket of more than distSortSmall keys
// is re-bucketed on its own [lo, hi], up to distSortDepth passes deep;
// one insertion pass over the whole array then sorts every small
// bucket in place, never moving a key across a bucket boundary.
//
// The result is the stable order, bit for bit: the sorted keys, and
// each key's tag carried along. Keys outside the domain (NaN, negative
// values, −0) make sort report false; callers then keep their
// comparison sort, whose order for NaN and ±0 a bucket order would not
// reproduce.
//
// Per call, against copy + sort.Float64s and the six-digit LSD radix
// sort the rank image used before (radix timed on the same inputs at
// the parent commit): BenchmarkRankImage on a 2-vCPU Intel Xeon
// (linux/amd64, go1.24.0), medians of five alternated runs. "solve" is
// the norm of a 2-D Gaussian step; the other shapes are the skewed
// ones of TestRankImageMatchesSort.
//
//	pairs  shape    sort.Float64s  radix     distSorter
//	   28  solve       0.5 µs       9.1 µs     0.3 µs
//	   28  outlier     0.4 µs       6.0 µs     0.5 µs
//	   28  tied        0.2 µs       3.9 µs     0.4 µs
//	  105  solve       1.7 µs       8.1 µs     0.7 µs
//	  105  outlier     1.6 µs       7.4 µs     2.5 µs
//	  105  cluster     1.8 µs       6.0 µs     1.5 µs
//	  700  solve      15.7 µs      14.8 µs     9.4 µs
//	  700  outlier    22.5 µs      14.2 µs    16.0 µs
//	  700  cluster    16.1 µs      14.6 µs    16.0 µs
//	 1225  solve      71.5 µs      30.6 µs     9.5 µs
//	 1225  outlier    60.9 µs      27.7 µs    21.0 µs
//	 1225  cluster    55.3 µs      26.8 µs    23.7 µs
//	 1225  tied        7.1 µs      22.8 µs    11.2 µs
//	 2016  solve     128.7 µs      47.4 µs    15.9 µs
//	 2016  outlier   140.8 µs      38.4 µs    31.2 µs
//	31375  solve       3.77 ms    743.5 µs   585.2 µs
//	31375  outlier     3.69 ms    719.3 µs   672.3 µs
//	31375  cluster     3.30 ms    847.4 µs   667.8 µs
//	31375  tied      655.5 µs     544.9 µs   531.7 µs
//	31375  zero       57.6 µs     216.1 µs    93.2 µs
//
// Before the kernel, the rank image ran sort.Float64s below 768 pairs
// and the radix from 768 up; against that path, size by size: on
// solve-shaped distances the kernel is the fastest at every size, so
// it runs at every size. The rank image only ever sorts Euclidean
// configuration distances, which are solve-shaped. From 768 pairs up
// the kernel also beats the radix on every skewed shape. Below 768
// pairs some skewed shapes are slower than sort.Float64s was: 28
// tied values 2× (0.4 against 0.2 µs), 28 values with an outlier
// 1.25×, 105 values with an outlier 1.56×. flattenPairs and
// alienation's d-ranks sort city-block dissimilarities and centred
// distances, which can be tied at any size.
type distSorter struct {
	count []uint32  // bucket offsets of the pass in progress, one per key
	tk    []float64 // re-bucketing source, allocated on first need
	tt    []uint32
	spans []distSpan // oversize buckets awaiting a pass
	// compared counts the keys left to the comparison sort at
	// distSortDepth, over the kernel's life.
	compared int
}

// distSpan is an oversize bucket: keys [lo, hi) of the output, to be
// re-bucketed at the given depth.
type distSpan struct{ lo, hi, depth int }

// newDistSorter returns a kernel for up to m keys.
func newDistSorter(m int) distSorter {
	return distSorter{count: make([]uint32, m)}
}

// sortValues writes vals in ascending order into out (len(out) ==
// len(vals)), bit for bit what copy + sort.Float64s writes: in the
// kernel's domain equal values have equal bits, so the sorted multiset
// is unique. Out-of-domain input goes to sort.Float64s.
func (s *distSorter) sortValues(out, vals []float64) {
	if !s.sort(out, nil, vals, nil) {
		copy(out, vals)
		sort.Float64s(out)
	}
}

// sort orders keys ascending and stably into sk; when st is non-nil it
// receives each key's tag in the same order — tags[k], or k itself when
// tags is nil. It reports false, leaving sk and st unspecified, when a
// key is negative (−0 included) or NaN. len(keys) is at most the size
// the kernel was made for, and below math.MaxUint32.
func (s *distSorter) sort(sk []float64, st []uint32, keys []float64, tags []uint32) bool {
	if len(keys) == 0 {
		return true
	}
	lo, hi := math.Inf(1), 0.0
	for _, v := range keys {
		if math.Float64bits(v) > maxOrderedBits {
			return false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s.pass(sk, st, keys, tags, lo, hi, 0, 0)
	for len(s.spans) > 0 {
		sp := s.spans[len(s.spans)-1]
		s.spans = s.spans[:len(s.spans)-1]
		s.rebucket(sk, st, sp)
	}
	insertionPass(sk, st)
	return true
}

// rebucket runs one pass over an oversize bucket's keys, from a copy of
// them, on the bucket's own range. A bucket of equal keys is already in
// the stable order the scatter left it in.
func (s *distSorter) rebucket(sk []float64, st []uint32, sp distSpan) {
	dk := sk[sp.lo:sp.hi]
	lo, hi := dk[0], dk[0]
	for _, v := range dk {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return
	}
	if s.tk == nil {
		s.tk = make([]float64, len(s.count))
	}
	src := s.tk[sp.lo:sp.hi]
	copy(src, dk)
	var dt, srcT []uint32
	if st != nil {
		if s.tt == nil {
			s.tt = make([]uint32, len(s.count))
		}
		dt, srcT = st[sp.lo:sp.hi], s.tt[sp.lo:sp.hi]
		copy(srcT, dt)
	}
	s.pass(dk, dt, src, srcT, lo, hi, sp.lo, sp.depth)
}

// pass distributes src (keys in [lo, hi], with tags srcT, nil meaning
// each key's index) into dk and dt by bucket, stably, and queues each
// oversize bucket as a span of the whole output (base is dk's offset
// in it).
func (s *distSorter) pass(dk []float64, dt []uint32, src []float64, srcT []uint32, lo, hi float64, base, depth int) {
	m := len(src)
	if lo == hi {
		// One key value (every key +Inf included): the input order is
		// the stable order.
		copy(dk, src)
		if dt != nil {
			copyTags(dt, srcT)
		}
		return
	}
	// +Inf keys clamp into the top bucket, so the range is the finite
	// keys'. lo is finite here, as lo < hi.
	if math.IsInf(hi, 1) {
		hi = lo
		for _, v := range src {
			if v > hi && !math.IsInf(v, 1) {
				hi = v
			}
		}
	}
	nb := m
	pre, scale := 1.0, 1.0
	if w := hi - lo; w > 0 {
		scale = float64(nb) / w
		if math.IsInf(scale, 1) {
			// A subnormal range: scale the offsets up exactly first.
			pre = 0x1p600
			scale = float64(nb) / (w * pre)
		}
	}
	top := float64(nb - 1)
	cnt := s.count[:nb]
	clear(cnt)
	for _, v := range src {
		t := (v - lo) * pre * scale
		if t > top {
			t = top
		}
		cnt[int(t)]++
	}
	var sum, most uint32
	for b, c := range cnt {
		cnt[b] = sum
		sum += c
		most = max(most, c)
	}
	// The scatter, in input order: equal keys keep it.
	switch {
	case dt == nil:
		for _, v := range src {
			t := (v - lo) * pre * scale
			if t > top {
				t = top
			}
			p := cnt[int(t)]
			cnt[int(t)] = p + 1
			dk[p] = v
		}
	case srcT == nil:
		for k, v := range src {
			t := (v - lo) * pre * scale
			if t > top {
				t = top
			}
			p := cnt[int(t)]
			cnt[int(t)] = p + 1
			dk[p], dt[p] = v, uint32(k)
		}
	default:
		for k, v := range src {
			t := (v - lo) * pre * scale
			if t > top {
				t = top
			}
			p := cnt[int(t)]
			cnt[int(t)] = p + 1
			dk[p], dt[p] = v, srcT[k]
		}
	}
	if most <= distSortSmall {
		return
	}
	// cnt[b] is now the end of bucket b.
	start := 0
	for b := 0; b < nb; b++ {
		end := int(cnt[b])
		if end-start > distSortSmall {
			if depth < distSortDepth {
				if s.spans == nil {
					// Queued spans are disjoint and each holds more
					// than distSortSmall keys: this never regrows.
					s.spans = make([]distSpan, 0, len(s.count)/distSortSmall+1)
				}
				s.spans = append(s.spans, distSpan{lo: base + start, hi: base + end, depth: depth + 1})
			} else {
				s.compared += end - start
				var rt []uint32
				if dt != nil {
					rt = dt[start:end]
				}
				stableRegion(dk[start:end], rt)
			}
		}
		start = end
	}
}

// copyTags copies src into dst, or writes each index when src is nil.
func copyTags(dst, src []uint32) {
	if src != nil {
		copy(dst, src)
		return
	}
	for k := range dst {
		dst[k] = uint32(k)
	}
}

// stableRegion comparison-sorts keys, and tags with them when tags is
// non-nil, stably: the end of the re-bucketing's depth.
func stableRegion(keys []float64, tags []uint32) {
	if tags == nil {
		sort.Float64s(keys) // equal keys have equal bits
		return
	}
	type keyTag struct {
		k float64
		t uint32
	}
	kt := make([]keyTag, len(keys))
	for x, k := range keys {
		kt[x] = keyTag{k, tags[x]}
	}
	slices.SortStableFunc(kt, func(a, b keyTag) int { return cmp.Compare(a.k, b.k) })
	for x, e := range kt {
		keys[x], tags[x] = e.k, e.t
	}
}

// insertionPass finishes the kernel: after the passes every key sits in
// its final bucket, so one stable insertion sort over the whole array
// costs the array's length plus the inversions inside the buckets.
func insertionPass(sk []float64, st []uint32) {
	if st == nil {
		for x := 1; x < len(sk); x++ {
			v := sk[x]
			if !(v < sk[x-1]) {
				continue
			}
			y := x
			for ; y > 0 && sk[y-1] > v; y-- {
				sk[y] = sk[y-1]
			}
			sk[y] = v
		}
		return
	}
	for x := 1; x < len(sk); x++ {
		v := sk[x]
		if !(v < sk[x-1]) {
			continue
		}
		t := st[x]
		y := x
		for ; y > 0 && sk[y-1] > v; y-- {
			sk[y] = sk[y-1]
			st[y] = st[y-1]
		}
		sk[y], st[y] = v, t
	}
}
