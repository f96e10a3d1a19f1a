package ftl

import "ssdtp/internal/obs"

// entryState is a cache entry's lifecycle.
type entryState uint8

const (
	entryDirty    entryState = iota // newest copy lives in RAM, awaiting flush
	entryFlushing                   // a page program carrying this copy is in flight
	entryDead                       // trimmed or superseded object; skip on pop
)

// cacheEntry is one logical sector resident in the write cache. Entries are
// recycled through the cache's freelist once fully detached: dead, with no
// fifo node referencing them (queued) and no in-flight program carrying
// them (flight). The three fields together are the reference count.
type cacheEntry struct {
	lsn    int64
	state  entryState
	queued bool        // a fifo node currently references this entry
	flight *pageOp     // the program carrying this copy when entryFlushing
	next   *cacheEntry // freelist link
}

// writeCache implements the data-cache designation: a FIFO write-back cache
// with admission backpressure. It holds no payload bytes (content fidelity
// lives at the device layer); it tracks which sectors are dirty and when
// they flush, which is all the timing and write-amplification models need.
//
// entries indexes every resident sector (dirty or flushing) by LBA in an
// open-addressing table sized from the cache's capacity in sectors, the
// entries themselves are recycled through a freelist, and the FIFO reuses
// its backing array (push), so at steady state admitting, flushing and
// committing sectors allocates nothing.
type writeCache struct {
	capBytes   int
	flushWater int
	sector     int

	entries cacheIndex
	fifo    []*cacheEntry // fifo[head:]: dirty entries in arrival order (stale nodes skipped)
	head    int

	dirtyCount    int
	dirtyBytes    int
	flushingBytes int
	inflight      int // cache-flush page programs in flight

	free *cacheEntry // recycled entries, linked through cacheEntry.next

	admitWaiters []admitWaiter
}

// admitWaiter is a host write stalled on cache admission, with its
// latency-attribution record (nil when tracing is off) so the stall is
// charged to GC interference or flush backpressure as appropriate.
type admitWaiter struct {
	done func()
	attr *obs.ReqAttr
}

// newEntry returns a recycled (or fresh) dirty entry for lsn.
func (c *writeCache) newEntry(lsn int64) *cacheEntry {
	e := c.free
	if e != nil {
		c.free = e.next
		e.next = nil
		e.lsn = lsn
		e.state = entryDirty
		e.queued = false
		e.flight = nil
		return e
	}
	return &cacheEntry{lsn: lsn, state: entryDirty}
}

// recycleIfDead returns e to the freelist once nothing references it: it is
// dead, no fifo node points at it, and no in-flight program carries it.
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
	return &writeCache{
		capBytes:   capBytes,
		flushWater: capBytes * 3 / 4,
		sector:     sector,
		entries:    newCacheIndex(capBytes / sector),
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
	e.state = entryDead
	// A dirty entry still has its fifo node (popDirty recycles it) and a
	// flushing one its carrying program (commit recycles it), so the entry
	// is never free-listed here.
}

// writeCached admits a host write into the data cache, completing after
// DRAM latency unless the cache is over-committed (backpressure), in which
// case completion waits for flush progress.
func (f *FTL) writeCached(lsn int64, count int, done func()) {
	c := f.cache
	attr := f.prof.Cur()
	for s := int64(0); s < int64(count); s++ {
		l := lsn + s
		if e := c.entries.get(l); e != nil {
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
		e := c.newEntry(l)
		c.entries.put(l, e)
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

// push queues e at the FIFO's tail. Once the backing array is full and at
// least half of it is popped nodes, the queued nodes slide down to its
// start instead of growing it, so at steady state the queue reuses one
// array rather than reallocating as its head advances.
func (c *writeCache) push(e *cacheEntry) {
	if len(c.fifo) == cap(c.fifo) && 2*c.head >= len(c.fifo) {
		n := copy(c.fifo, c.fifo[c.head:])
		clear(c.fifo[n:])
		c.fifo, c.head = c.fifo[:n], 0
	}
	e.queued = true
	c.fifo = append(c.fifo, e)
}

// popDirty removes and returns the oldest dirty entry, skipping stale
// nodes. Skipped nodes were the last reference to their (dead) entries, so
// this is also where trimmed-while-dirty entries return to the freelist.
func (c *writeCache) popDirty() *cacheEntry {
	for c.head < len(c.fifo) {
		e := c.fifo[c.head]
		c.fifo[c.head] = nil
		c.head++
		e.queued = false
		if e.state == entryDirty && c.entries.get(e.lsn) == e {
			return e
		}
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

// commitCachedSector finalizes one slot of a cache-flush program.
func (f *FTL) commitCachedSector(e *cacheEntry, op *pageOp, lsn, psn int64) {
	c := f.cache
	c.flushingBytes -= c.sector
	if e.state == entryFlushing && e.flight == op {
		// This copy is still the newest: install it and retire the entry.
		e.state = entryDead
		e.flight = nil
		c.entries.del(lsn)
		f.commitMapping(lsn, psn)
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
