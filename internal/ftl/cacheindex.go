package ftl

import "math/bits"

// cacheSlot is one cacheIndex slot: a logical sector and a word holding
// its entry's handle in the low handleBits and its distance from its home
// slot in the rest. A zero word marks the slot empty (handles start at 1).
// An LSN fits in 32 bits because Validate caps a drive at math.MaxInt32
// physical sectors, and with no pointer in it the slot table is memory the
// garbage collector never scans.
type cacheSlot struct {
	lsn int32
	hd  uint32
}

const (
	// handleBits is how many low bits of a slot's word hold the handle;
	// the rest hold the distance.
	handleBits = 24
	handleMask = 1<<handleBits - 1
	// maxHandles is the most entries the arena can name.
	maxHandles = handleMask
	// maxCacheSectors is the largest write cache, in sectors, that Validate
	// accepts: newWriteCache sizes the index for twice the capacity.
	maxCacheSectors = maxHandles / 2
	// maxDist is the longest distance from home a slot can record; an
	// insert that would displace an entry further doubles the table.
	maxDist = 1<<(32-handleBits) - 1
)

func (s cacheSlot) handle() int32 { return int32(s.hd & handleMask) }
func (s cacheSlot) dist() uint32  { return s.hd >> handleBits }

// cacheIndex maps a logical sector to its write-cache entry. It is an
// open-addressing hash table with Robin Hood linear probing over a
// power-of-two slot array: an insert takes the slot of any entry nearer its
// home than the newcomer is to its own, and pushes that entry on, so along
// a probe run the distance from home rises by at most one per slot. A
// lookup therefore stops at the first slot whose entry is nearer its home
// than the probe has come, and a deletion shifts back only the displaced
// entries after the hole (no tombstones, so probe runs never degrade under
// the cache's insert/delete churn). The table doubles once half the slots
// are full. Its memory is O(cache capacity), not O(LBAs): the cache bounds
// how many sectors are resident at once, and newCacheIndex sizes the table
// so a full cache stays at or under half load.
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

// resize rebuilds the table with size slots, doubling again if a run
// would outgrow the distance field.
func (x *cacheIndex) resize(size int) {
	old := x.slots
	for !x.rehash(old, size) {
		size *= 2
	}
}

// rehash reinserts the entries of old into a fresh table of size slots and
// reports whether every one fit within maxDist of its home.
func (x *cacheIndex) rehash(old []cacheSlot, size int) bool {
	x.slots = make([]cacheSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size/homeGroup)))
	for _, s := range old {
		if s.hd == 0 {
			continue
		}
		i, d, _ := x.find(int64(s.lsn))
		if _, ok := x.place(s, i, d); !ok {
			return false
		}
	}
	return true
}

// addBlock adds a block of entries to the arena, each carrying its handle,
// and returns it.
func (x *cacheIndex) addBlock() *[entryBlock]cacheEntry {
	if (len(x.blocks)+1)*entryBlock > maxHandles {
		panic("ftl: write-cache entries exhaust the index's handles")
	}
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

// find returns lsn's slot and true, or, when lsn is absent, the slot where
// its probe stopped, lsn's distance from its home there, and false: the
// slot is empty or holds an entry nearer its own home, which an entry for
// lsn would have displaced.
func (x *cacheIndex) find(lsn int64) (i int, d uint32, ok bool) {
	i = x.home(lsn)
	m := x.mask()
	for {
		s := x.slots[i]
		if s.hd == 0 || s.dist() < d {
			return i, d, false
		}
		if s.lsn == int32(lsn) {
			return i, d, true
		}
		i = (i + 1) & m
		d++
	}
}

// at returns the entry in occupied slot i.
func (x *cacheIndex) at(i int) *cacheEntry { return x.entry(x.slots[i].handle()) }

// get returns lsn's entry, or nil.
func (x *cacheIndex) get(lsn int64) *cacheEntry {
	i, _, ok := x.find(lsn)
	if !ok {
		return nil
	}
	return x.at(i)
}

// insert indexes e under lsn, which is absent, at the slot i and distance d
// where find's probe for lsn stopped; nothing may change the table between
// the two calls. The table doubles once it is over half full, or when an
// entry would land further than maxDist from its home.
func (x *cacheIndex) insert(i int, d uint32, lsn int64, e *cacheEntry) {
	x.n++
	s, ok := x.place(cacheSlot{int32(lsn), uint32(e.h)}, i, d)
	for !ok {
		x.resize(2 * len(x.slots))
		i, d, _ = x.find(int64(s.lsn))
		s, ok = x.place(s, i, d)
	}
	if 2*x.n > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
}

// place stores s at slot i, d slots from its home, Robin Hood style: each
// entry it meets that is nearer its home than the one in hand is swapped
// out and carried on. It reports false, with the entry then in hand, if
// that entry would land more than maxDist from its home.
func (x *cacheIndex) place(s cacheSlot, i int, d uint32) (cacheSlot, bool) {
	m := x.mask()
	h := s.hd & handleMask
	for {
		if d > maxDist {
			return cacheSlot{s.lsn, h}, false
		}
		cur := x.slots[i]
		if cur.hd == 0 {
			x.slots[i] = cacheSlot{s.lsn, h | d<<handleBits}
			return cacheSlot{}, true
		}
		if cd := cur.dist(); cd < d {
			x.slots[i] = cacheSlot{s.lsn, h | d<<handleBits}
			s, h, d = cur, cur.hd&handleMask, cd
		}
		i = (i + 1) & m
		d++
	}
}

// del removes lsn and returns its entry, or nil if it was absent.
func (x *cacheIndex) del(lsn int64) *cacheEntry {
	i, _, ok := x.find(lsn)
	if !ok {
		return nil
	}
	e := x.at(i)
	x.n--
	x.remove(i)
	return e
}

// remove empties slot i, shifting back one slot each entry after it that is
// displaced from its home, and returns the slot that ended the shift: the
// first one that is empty or holds an entry at its home. Robin Hood keeps a
// run's entries ordered by home, so the entries past one at its home have
// their homes at or past it and never probe the hole.
func (x *cacheIndex) remove(i int) int {
	m := x.mask()
	for {
		j := (i + 1) & m
		s := x.slots[j]
		if s.dist() == 0 { // empty, or at its home
			x.slots[i] = cacheSlot{}
			return j
		}
		x.slots[i] = cacheSlot{s.lsn, s.hd - 1<<handleBits}
		i = j
	}
}
