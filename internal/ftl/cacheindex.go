package ftl

import "math/bits"

// cacheSlot is one cacheIndex slot: a logical sector and its entry's
// handle. Handle 0 marks the slot empty. An LSN fits in 32 bits because
// Validate caps a drive at math.MaxInt32 physical sectors, and with no
// pointer in it the slot table is memory the garbage collector never scans.
type cacheSlot struct {
	lsn int32
	h   int32
}

// cacheIndex maps a logical sector to its write-cache entry. It is an
// open-addressing hash table: linear probing over a power-of-two slot
// array, backward-shift deletion (no tombstones, so probe runs never
// degrade under the cache's insert/delete churn), and doubling once half
// the slots are full. Its memory is O(cache capacity), not O(LBAs): the
// cache bounds how many sectors are resident at once, and newCacheIndex
// sizes the table so a full cache stays at or under half load.
//
// The index also owns the entries, in blocks of entryBlock that never
// move, and a slot names its entry by handle: one plus the entry's position
// in blocks, which the entry records as its own h.
//
// Homes are grouped by cache line: each aligned group of homeGroup
// consecutive LBAs hashes to one group of adjacent slots (64 bytes of
// 8-byte slots), so a sequential run of sectors — a multi-sector write,
// or a page's worth of cache flush — touches one line per group rather
// than one per sector.
type cacheIndex struct {
	slots  []cacheSlot
	shift  uint // 64 - log2(len(slots)/homeGroup): home() keeps the hash's top bits
	n      int
	blocks []*[entryBlock]cacheEntry
}

// homeGroup is how many consecutive LBAs share one cache line of slots.
const homeGroup = 8

// entryBlock is how many cache entries one arena block holds.
const entryBlock = 16

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
	x.shift = uint(64 - bits.TrailingZeros(uint(size/homeGroup)))
	for _, s := range old {
		if s.h != 0 {
			x.slots[x.find(int64(s.lsn))] = s
		}
	}
}

// addBlock adds a block of entries to the arena, each carrying its handle,
// and returns it.
func (x *cacheIndex) addBlock() *[entryBlock]cacheEntry {
	b := new([entryBlock]cacheEntry)
	base := int32(len(x.blocks)) * entryBlock
	for i := range b {
		b[i].h = base + int32(i) + 1
	}
	x.blocks = append(x.blocks, b)
	return b
}

// entry returns the entry of handle h, which must not be 0.
func (x *cacheIndex) entry(h int32) *cacheEntry {
	i := uint32(h - 1)
	return &x.blocks[i/entryBlock][i%entryBlock]
}

func (x *cacheIndex) mask() int { return len(x.slots) - 1 }

// home is lsn's preferred slot: its offset within its aligned group of
// homeGroup LBAs, in the slot group picked by Fibonacci hashing the group
// number (so sequential groups spread across the table instead of filling
// one run).
func (x *cacheIndex) home(lsn int64) int {
	g := uint64(lsn) / homeGroup
	return int(g*0x9E3779B97F4A7C15>>x.shift)*homeGroup + int(uint64(lsn)%homeGroup)
}

// find returns lsn's slot, or the empty slot that ends its probe run.
func (x *cacheIndex) find(lsn int64) int {
	i := x.home(lsn)
	for x.slots[i].h != 0 && x.slots[i].lsn != int32(lsn) {
		i = (i + 1) & x.mask()
	}
	return i
}

// get returns lsn's entry, or nil.
func (x *cacheIndex) get(lsn int64) *cacheEntry {
	h := x.slots[x.find(lsn)].h
	if h == 0 {
		return nil
	}
	return x.entry(h)
}

// put indexes e, an entry of this index's arena, under lsn, which must not
// be present.
func (x *cacheIndex) put(lsn int64, e *cacheEntry) {
	if 2*(x.n+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	x.slots[x.find(lsn)] = cacheSlot{int32(lsn), e.h}
	x.n++
}

// del removes lsn and returns its entry, or nil if it was absent. Entries
// later in the probe run shift back into the hole when the hole lies on
// their own probe path, so every remaining key stays reachable from its
// home without tombstones.
func (x *cacheIndex) del(lsn int64) *cacheEntry {
	i := x.find(lsn)
	h := x.slots[i].h
	if h == 0 {
		return nil
	}
	x.n--
	m := x.mask()
	for j := i; ; {
		j = (j + 1) & m
		s := x.slots[j]
		if s.h == 0 {
			break
		}
		// s may fill the hole at i only if i is on its probe path: its
		// home is no nearer to j than i is.
		if (j-x.home(int64(s.lsn)))&m >= (j-i)&m {
			x.slots[i] = s
			i = j
		}
	}
	x.slots[i] = cacheSlot{}
	return x.entry(h)
}
