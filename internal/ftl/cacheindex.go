package ftl

import "math/bits"

// cacheSlot is one cacheIndex slot; e == nil marks it empty.
type cacheSlot struct {
	lsn int64
	e   *cacheEntry
}

// cacheIndex maps a logical sector to its write-cache entry. It is an
// open-addressing hash table: linear probing over a power-of-two slot
// array, backward-shift deletion (no tombstones, so probe runs never
// degrade under the cache's insert/delete churn), and doubling once half
// the slots are full. Its memory is O(cache capacity), not O(LBAs): the
// cache bounds how many sectors are resident at once, and newCacheIndex
// sizes the table so a full cache stays at or under half load.
type cacheIndex struct {
	slots []cacheSlot
	shift uint // 64 - log2(len(slots)): home() keeps the hash's top bits
	n     int
}

// newCacheIndex returns an index with room for capacity entries at half
// load.
func newCacheIndex(capacity int) cacheIndex {
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	var x cacheIndex
	x.resize(size)
	return x
}

func (x *cacheIndex) resize(size int) {
	old := x.slots
	x.slots = make([]cacheSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.e != nil {
			x.slots[x.find(s.lsn)] = s
		}
	}
}

func (x *cacheIndex) mask() int { return len(x.slots) - 1 }

// home is lsn's preferred slot (Fibonacci hashing: sequential LBAs spread
// across the table instead of filling one run).
func (x *cacheIndex) home(lsn int64) int {
	return int(uint64(lsn) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns lsn's slot, or the empty slot that ends its probe run.
func (x *cacheIndex) find(lsn int64) int {
	i := x.home(lsn)
	for x.slots[i].e != nil && x.slots[i].lsn != lsn {
		i = (i + 1) & x.mask()
	}
	return i
}

// get returns lsn's entry, or nil.
func (x *cacheIndex) get(lsn int64) *cacheEntry { return x.slots[x.find(lsn)].e }

// put indexes e under lsn, which must not be present.
func (x *cacheIndex) put(lsn int64, e *cacheEntry) {
	if 2*(x.n+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	x.slots[x.find(lsn)] = cacheSlot{lsn, e}
	x.n++
}

// del removes lsn and returns its entry, or nil if it was absent. Entries
// later in the probe run shift back into the hole when the hole lies on
// their own probe path, so every remaining key stays reachable from its
// home without tombstones.
func (x *cacheIndex) del(lsn int64) *cacheEntry {
	i := x.find(lsn)
	e := x.slots[i].e
	if e == nil {
		return nil
	}
	x.n--
	m := x.mask()
	for j := i; ; {
		j = (j + 1) & m
		s := x.slots[j]
		if s.e == nil {
			break
		}
		// s may fill the hole at i only if i is on its probe path: its
		// home is no nearer to j than i is.
		if (j-x.home(s.lsn))&m >= (j-i)&m {
			x.slots[i] = s
			i = j
		}
	}
	x.slots[i] = cacheSlot{}
	return e
}
