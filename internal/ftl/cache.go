package ftl

import "ssdtp/internal/obs"

// entryState is a cache entry's lifecycle.
type entryState uint8

const (
	entryDirty    entryState = iota // newest copy lives in RAM, awaiting flush
	entryFlushing                   // a page program carrying this copy is in flight
	entryDead                       // trimmed or superseded object; skip on pop
)

// cacheEntry is one logical sector resident in the write cache. Entries live
// in the index's arena and are recycled through the cache's freelist once
// fully detached: dead, not in the dirty FIFO (queued) and not carried by
// an in-flight program (flight). The three fields together are the
// reference count.
type cacheEntry struct {
	lsn    int64
	state  entryState
	queued bool        // the entry is in the dirty FIFO
	h      int32       // the entry's handle in the index, fixed for life
	flight *pageOp     // the program carrying this copy when entryFlushing
	next   *cacheEntry // FIFO link while queued, freelist link while free
}

// writeCache implements the data-cache designation: a FIFO write-back cache
// with admission backpressure. It holds no payload bytes (content fidelity
// lives at the device layer); it tracks which sectors are dirty and when
// they flush, which is all the timing and write-amplification models need.
//
// entries indexes every resident sector (dirty or flushing) by LBA in an
// open-addressing table sized from the cache's capacity in sectors, the
// entries themselves come from the index's arena and are recycled through a
// freelist, and the dirty FIFO links the entries through their next field
// (an entry is never queued and free at once), so at steady state
// admitting, flushing and committing sectors allocates nothing.
type writeCache struct {
	capBytes   int
	flushWater int
	sector     int

	entries    cacheIndex
	head, tail *cacheEntry // dirty FIFO in arrival order (dead entries skipped on pop)

	dirtyCount    int
	dirtyBytes    int
	flushingBytes int
	inflight      int // cache-flush page programs in flight

	free *cacheEntry // recycled entries, linked through cacheEntry.next

	// deadQueued counts the dead entries still in the dirty FIFO: sectors
	// trimmed while dirty, which popDirty would skip.
	deadQueued int

	admitWaiters []admitWaiter
}

// admitWaiter is a host write stalled on cache admission, with its
// latency-attribution record (nil when tracing is off) so the stall is
// charged to GC interference or flush backpressure as appropriate.
type admitWaiter struct {
	done func()
	attr *obs.ReqAttr
}

// newEntry returns a recycled dirty entry for lsn, growing the index's
// arena by a block when the freelist is empty.
func (c *writeCache) newEntry(lsn int64) *cacheEntry {
	if c.free == nil {
		c.grow()
	}
	e := c.free
	c.free = e.next
	e.next = nil
	e.lsn = lsn
	e.state = entryDirty
	e.queued = false
	e.flight = nil
	return e
}

// grow adds a block of entries from the index's arena to the freelist.
func (c *writeCache) grow() {
	b := c.entries.addBlock()
	for i := len(b) - 1; i >= 0; i-- {
		b[i].next = c.free
		c.free = &b[i]
	}
}

// recycleIfDead returns e to the freelist once nothing references it: it is
// dead, out of the FIFO, and no in-flight program carries it.
// Callers invoke this after dropping whichever reference they held.
func (c *writeCache) recycleIfDead(e *cacheEntry) {
	if e.state == entryDead && !e.queued && e.flight == nil {
		e.next = c.free
		c.free = e
	}
}

func newWriteCache(capBytes, sector int) *writeCache {
	if capBytes <= 0 {
		capBytes = 16 * sector // degenerate but functional minimum
	}
	// writeCached admits a whole request before it stalls, so residency can
	// overshoot the capacity by up to one request; the index holds room for
	// one more cache's worth of sectors, so that overshoot never rehashes it.
	return &writeCache{
		capBytes:   capBytes,
		flushWater: capBytes * 3 / 4,
		sector:     sector,
		entries:    newCacheIndex(2 * capBytes / sector),
	}
}

// overCommitted reports whether admissions should stall.
func (c *writeCache) overCommitted() bool {
	return c.dirtyBytes+c.flushingBytes > c.capBytes
}

// drop removes lsn from the cache (TRIM). A flushing copy is marked dead so
// its commit discards the programmed slot.
func (c *writeCache) drop(lsn int64) {
	e := c.entries.del(lsn)
	if e == nil {
		return
	}
	switch e.state {
	case entryDirty:
		c.dirtyBytes -= c.sector
		c.dirtyCount--
	case entryFlushing:
		// flushingBytes released at commit.
	}
	// A dirty entry is still queued (popDirty or compact recycles it) and a
	// flushing one carried by its program (commit recycles it), so the
	// entry is never free-listed here.
	e.state = entryDead
	if e.queued {
		c.deadQueued++
		if c.deadQueued > c.dirtyCount+compactSlack {
			c.compact()
		}
	}
}

// compactSlack is how many more dead entries than dirty ones the dirty FIFO
// may hold before drop compacts it.
const compactSlack = 64

// compact unlinks the dead entries from the dirty FIFO and recycles them.
// Without it, a workload that trims what it writes before a flush reaches
// it would keep every trimmed entry queued, and the entry arena would grow
// without bound; drop calls it once dead entries outnumber dirty ones by
// compactSlack, so each walk is paid for by the drops that made its dead
// entries. The dirty entries keep their order.
func (c *writeCache) compact() {
	var head, tail *cacheEntry
	for e := c.head; e != nil; {
		next := e.next
		e.next = nil
		if e.state == entryDead {
			e.queued = false
			c.recycleIfDead(e)
		} else {
			if tail == nil {
				head = e
			} else {
				tail.next = e
			}
			tail = e
		}
		e = next
	}
	c.head, c.tail = head, tail
	c.deadQueued = 0
}

// writeCached admits a host write into the data cache, completing after
// DRAM latency unless the cache is over-committed (backpressure), in which
// case completion waits for flush progress.
func (f *FTL) writeCached(lsn int64, count int, done func()) {
	c := f.cache
	attr := f.prof.Cur()
	for s := int64(0); s < int64(count); s++ {
		l := lsn + s
		i, d, hit := c.entries.find(l)
		if hit {
			e := c.entries.at(i)
			f.counters.CacheHits++
			if e.state == entryFlushing {
				// Supersede the in-flight copy: this entry becomes dirty
				// again; the flying program's slot will be dead on commit.
				e.state = entryDirty
				e.flight = nil
				c.push(e)
				c.dirtyBytes += c.sector
				c.dirtyCount++
			}
			continue
		}
		e := c.newEntry(l) // grows the arena, never the slot table
		c.entries.insert(i, d, l, e)
		c.push(e)
		c.dirtyBytes += c.sector
		c.dirtyCount++
	}
	f.maybeFlushCache()
	if c.overCommitted() {
		f.prof.StallEnter(attr)
		c.admitWaiters = append(c.admitWaiters, admitWaiter{done: done, attr: attr})
		return
	}
	attr.Mark(obs.PhaseCacheHit)
	f.scheduleDone(done)
}

// maybeFlushCache starts eviction flushes while the cache is above its flush
// watermark.
func (f *FTL) maybeFlushCache() {
	c := f.cache
	for c.dirtyBytes > c.flushWater && c.inflight < maxFlushInflight && c.dirtyCount > 0 {
		f.counters.CacheEvictions++
		if f.tr.Enabled() {
			f.tr.Emit("ftl.cache.evict",
				obs.Int("dirty_bytes", int64(c.dirtyBytes)),
				obs.Int("inflight", int64(c.inflight)))
		}
		f.startCacheFlush()
	}
}

// push queues e at the FIFO's tail; e.next is nil, as newEntry and popDirty
// leave it. An entry is queued at most once: only a flushing entry, which
// popDirty dequeued, is pushed again.
func (c *writeCache) push(e *cacheEntry) {
	e.queued = true
	if c.tail == nil {
		c.head = e
	} else {
		c.tail.next = e
	}
	c.tail = e
}

// popDirty removes and returns the oldest dirty entry, skipping dead ones.
// The queue was the last reference to a skipped entry, so this is also
// where trimmed-while-dirty entries return to the freelist, unless compact
// got to them first.
//
// A dirty entry is always the index's entry for its LSN, so no index lookup
// is needed here: both index deletions (drop, commitCachedSector) mark the
// entry dead, and an entry is recycled (and indexed afresh) only once dead.
func (c *writeCache) popDirty() *cacheEntry {
	for c.head != nil {
		e := c.head
		c.head, e.next = e.next, nil
		if c.head == nil {
			c.tail = nil
		}
		e.queued = false
		if e.state == entryDirty {
			return e
		}
		c.deadQueued--
		c.recycleIfDead(e)
	}
	return nil
}

// startCacheFlush batches up to a page worth of oldest dirty sectors into
// one program (padding a short tail) and submits it.
func (f *FTL) startCacheFlush() {
	c := f.cache
	op := f.newPageOp(kindData, 0)
	lsns, entries := op.lsnsBuf, op.entriesBuf
	n := 0
	for n < f.secPerPage {
		e := c.popDirty()
		if e == nil {
			break
		}
		e.state = entryFlushing
		c.dirtyBytes -= c.sector
		c.dirtyCount--
		c.flushingBytes += c.sector
		lsns[n] = e.lsn
		entries[n] = e
		n++
	}
	if n == 0 {
		f.releaseOp(op)
		return
	}
	for i := n; i < f.secPerPage; i++ {
		lsns[i] = -1
	}
	c.inflight++
	op.lsns, op.entries, op.pu = lsns, entries, f.nextPU()
	op.slc = f.takePSLCCredit()
	if f.cacheFlushDone == nil { // one closure for every flush op, built once
		f.cacheFlushDone = func() {
			c.inflight--
			f.maybeFlushCache()
			f.releaseAdmitWaiters()
		}
	}
	op.done = f.cacheFlushDone
	for _, e := range entries {
		if e != nil {
			e.flight = op
		}
	}
	f.submitPage(op)
}

// commitCachedSector finalizes one slot of a cache-flush program; old is
// the slot's l2p entry as commitPage gathered it.
func (f *FTL) commitCachedSector(e *cacheEntry, op *pageOp, lsn, psn, old int64) {
	c := f.cache
	c.flushingBytes -= c.sector
	if e.state == entryFlushing && e.flight == op {
		// This copy is still the newest: install it and retire the entry.
		e.state = entryDead
		e.flight = nil
		c.entries.del(lsn)
		f.commitMapping(lsn, psn, old)
		if op.slc && f.pslcIndex != nil {
			f.pslcIndex[lsn] = psn
		}
		c.recycleIfDead(e)
		return
	}
	// Superseded (re-dirtied) or trimmed while in flight: dead on arrival.
	if e.state == entryDead && e.flight == op {
		// Trimmed while this program carried it; the program was the last
		// reference. (A flight pointing elsewhere means the entry was
		// re-dirtied and is now carried by a newer program — not ours to
		// recycle.)
		e.flight = nil
		c.recycleIfDead(e)
	}
	f.p2l.Set(psn, psnFree)
}

// releaseAdmitWaiters completes stalled host writes once the cache is back
// under its commit limit.
func (f *FTL) releaseAdmitWaiters() {
	c := f.cache
	for len(c.admitWaiters) > 0 && !c.overCommitted() {
		w := c.admitWaiters[0]
		copy(c.admitWaiters, c.admitWaiters[1:])
		last := len(c.admitWaiters) - 1
		c.admitWaiters[last] = admitWaiter{} // drop stale refs (attr pinning)
		c.admitWaiters = c.admitWaiters[:last]
		f.prof.StallExit(w.attr, obs.PhaseCacheHit)
		f.scheduleDone(w.done)
	}
}

// cacheDirtySectors is exposed for tests and drain logic.
func (f *FTL) cacheDirtySectors() int {
	if f.cache == nil {
		return 0
	}
	return f.cache.dirtyCount
}
