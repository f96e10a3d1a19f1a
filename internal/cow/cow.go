// Package cow provides chunked, copy-on-write arrays for drive images
// (DESIGN.md §12). The simulator's large per-drive state — NAND page
// payloads, per-page lifecycle metadata, the FTL's dense mapping tables — is
// logically an array that a preconditioned clone shares almost entirely with
// its source image. Array (element access; power-of-two chunks) and Bytes
// (range access only; payload stores) keep such state in fixed-size chunks;
// Snapshot freezes the current chunks into an immutable Image, and Restore
// aliases an Image's chunks instead of copying them. A chunk is copied only
// on first write, so cloning costs O(chunks) pointer copies and a clone's
// resident memory is O(dirty chunks), not O(capacity).
//
// # Ownership rules
//
// Every chunk is, from each holder's point of view, either exclusive (only
// this Array references it; it may be written in place) or shared (it is
// aliased by at least one Image and must never be written). The share bit is
// sticky: Snapshot marks every materialized chunk shared in the source and
// the bit is cleared only by replacing the chunk (copy-on-write, FillRange
// release, Restore). There are no reference counts — a shared chunk stays
// immutable even after every other holder is gone, and the garbage collector
// reclaims it once unreferenced. This is what makes sharing safe under
// concurrent drive engines (cells on the runner pool cloning one cached
// image): the only cross-drive data is immutable, and each Array's mutable share bits belong to exactly
// one drive. A counted scheme that downgraded shared→exclusive when a count
// hit one would need atomics on every clone and write; the sticky bit needs
// none.
//
// A nil chunk represents a run of the array's fill value (zero for most
// arrays, a sentinel like the FTL's psnFree for others) and allocates
// nothing, so a freshly constructed drive is almost free until written.
package cow

import (
	"bytes"
	"math/bits"
	"unsafe"
)

// table is the chunk store behind Array and Bytes: the chunks, their share
// bits, and every operation that addresses a range of elements rather than
// one element (MutSpan, CopyOut, FillRange) or the whole store (Snapshot,
// Restore, Stats). A range op locates its chunk by division, once per call.
//
// The table holds each materialized chunk as a pointer to its first element
// (nil for a run of the fill value): every chunk is chunkLen elements long,
// so a pointer is all it takes to find the chunk, at 8 bytes per chunk
// rather than a 24-byte slice header. Range ops rebuild the slice with span;
// element ops offset the pointer directly.
type table[E comparable] struct {
	n        int64
	chunkLen int64
	fill     E
	fillZero bool
	chunks   []*E
	shared   []bool
	cowed    int64 // chunks privately copied on first write since Restore
}

// Image is an immutable snapshot of an Array or a Bytes store. It may be
// restored onto any number of identically shaped stores, concurrently;
// holders must never mutate it. Share is the one exception: it repoints
// chunks at others holding the same bytes, which no reader can tell apart.
type Image[E comparable] struct {
	n        int64
	chunkLen int64
	fill     E
	chunks   []*E
}

func newTable[E comparable](n, chunkLen int64, fill E) table[E] {
	if n < 0 || chunkLen <= 0 {
		panic("cow: invalid array shape")
	}
	nc := (n + chunkLen - 1) / chunkLen
	var zero E
	return table[E]{
		n: n, chunkLen: chunkLen,
		fill: fill, fillZero: fill == zero,
		chunks: make([]*E, nc), shared: make([]bool, nc),
	}
}

// span returns the chunk whose first element p is.
func (a *table[E]) span(p *E) []E { return unsafe.Slice(p, a.chunkLen) }

// clone returns a private copy of the chunk starting at p. (A make followed
// by a copy of its length compiles to one allocation the copy fills, with
// no clearing first.)
func (a *table[E]) clone(p *E) *E {
	src := a.span(p)
	c := make([]E, len(src))
	copy(c, src)
	return &c[0]
}

// elem returns element j of the chunk starting at p; j must lie in
// [0, chunkLen).
func elem[E any](p *E, j int64) *E {
	return (*E)(unsafe.Add(unsafe.Pointer(p), uintptr(j)*unsafe.Sizeof(*p)))
}

// Array is a chunked copy-on-write array of n elements with element access.
// Its chunk length is a power of two, so At, Set and Ptr locate an element
// by shift and mask, with no division on the per-element hot path. The zero
// value is not usable; construct with NewArray.
type Array[E comparable] struct {
	table[E]
	shift uint8 // log2(chunkLen)
	mask  int64 // chunkLen - 1
}

// NewArray returns an all-fill array of n elements in chunks of chunkLen,
// which must be a power of two. The byte totals in Stats/VisitShared
// accounting use E's in-memory size.
func NewArray[E comparable](n, chunkLen int64, fill E) *Array[E] {
	if chunkLen <= 0 || chunkLen&(chunkLen-1) != 0 {
		panic("cow: Array chunk length must be a power of two")
	}
	return &Array[E]{
		table: newTable(n, chunkLen, fill),
		shift: uint8(bits.TrailingZeros64(uint64(chunkLen))),
		mask:  chunkLen - 1,
	}
}

// Bytes is a chunked copy-on-write byte store of range access only:
// MutSpan, CopyOut and FillRange. Its chunk length follows a page or sector
// size, which need not be a power of two, so it has no element accessors —
// per-element indexing would need a division per access, and an Array's
// shift would index a non-power-of-two chunk wrongly. Construct with
// NewBytes.
type Bytes struct{ table[byte] }

// NewBytes returns an all-zero store of n bytes in chunks of chunkLen bytes
// (any positive length).
func NewBytes(n, chunkLen int64) *Bytes {
	return &Bytes{newTable(n, chunkLen, byte(0))}
}

// Len returns the element count.
func (a *table[E]) Len() int64 { return a.n }

// At returns element i. (Masking the shift count with 63 lets the compiler
// emit a bare arithmetic shift, without its out-of-range fix-up.)
func (a *Array[E]) At(i int64) E {
	p := a.chunks[i>>(a.shift&63)]
	if p == nil {
		return a.fill
	}
	return *elem(p, i&a.mask)
}

// own makes chunk ci exclusively writable, materializing it from the fill
// value if absent and copying it if shared, and returns its first element.
// (Set and Ptr test the exclusive case inline and call ownSlow for the
// rest, so the per-element path makes no call.)
func (a *table[E]) own(ci int64) *E {
	if p := a.chunks[ci]; p != nil && !a.shared[ci] {
		return p
	}
	return a.ownSlow(ci)
}

// ownSlow is own for an absent or shared chunk.
func (a *table[E]) ownSlow(ci int64) *E {
	p := a.chunks[ci]
	if p == nil {
		p = &make([]E, a.chunkLen)[0]
		if !a.fillZero {
			ch := a.span(p)
			for j := range ch {
				ch[j] = a.fill
			}
		}
		a.chunks[ci] = p
		return p
	}
	p = a.clone(p)
	a.chunks[ci] = p
	a.shared[ci] = false
	a.cowed++
	return p
}

// Set stores v at i. Storing the fill value into an absent chunk is a no-op
// and allocates nothing.
func (a *Array[E]) Set(i int64, v E) {
	ci := i >> (a.shift & 63)
	p := a.chunks[ci]
	if p == nil || a.shared[ci] {
		if p == nil && v == a.fill {
			return
		}
		p = a.ownSlow(ci)
	}
	*elem(p, i&a.mask) = v
}

// Ptr returns a writable pointer to element i, materializing and privatizing
// its chunk as needed. The pointer is valid until the next Snapshot, Restore
// or FillRange touching the chunk.
func (a *Array[E]) Ptr(i int64) *E {
	ci := i >> (a.shift & 63)
	p := a.chunks[ci]
	if p == nil || a.shared[ci] {
		p = a.ownSlow(ci)
	}
	return elem(p, i&a.mask)
}

// MutSpan returns a writable view of [lo, hi), which must be non-empty and
// lie within a single chunk (callers with chunk-aligned layouts, like the
// NAND page store, guarantee this by construction).
func (a *table[E]) MutSpan(lo, hi int64) []E {
	ci := lo / a.chunkLen
	if lo >= hi || hi > a.n || (hi-1)/a.chunkLen != ci {
		panic("cow: MutSpan must cover a non-empty range within one chunk")
	}
	off := lo % a.chunkLen
	return a.span(a.own(ci))[off : off+(hi-lo)]
}

// CopyOut copies [lo, hi) into dst, which must hold hi-lo elements. Absent
// chunks yield the fill value.
func (a *table[E]) CopyOut(lo, hi int64, dst []E) {
	for lo < hi {
		ci := lo / a.chunkLen
		off := lo % a.chunkLen
		nn := min(hi-lo, a.chunkLen-off)
		seg := dst[:nn]
		switch p := a.chunks[ci]; {
		case p != nil:
			copy(seg, a.span(p)[off:off+nn])
		case a.fillZero:
			clear(seg)
		default:
			for j := range seg {
				seg[j] = a.fill
			}
		}
		dst = dst[nn:]
		lo += nn
	}
}

// FillRange resets [lo, hi) to the fill value. Fully covered chunks are
// released to the implicit-fill representation (dropping any shared
// reference without copying it); partially covered chunks are privatized and
// overwritten.
func (a *table[E]) FillRange(lo, hi int64) {
	if lo < 0 || hi > a.n || lo > hi {
		panic("cow: FillRange out of bounds")
	}
	for lo < hi {
		ci := lo / a.chunkLen
		start := ci * a.chunkLen
		end := start + a.chunkLen
		if lo == start && hi >= end {
			a.chunks[ci] = nil
			a.shared[ci] = false
			lo = end
			continue
		}
		segEnd := min(hi, end)
		if a.chunks[ci] != nil {
			seg := a.span(a.own(ci))[lo-start : segEnd-start]
			if a.fillZero {
				clear(seg)
			} else {
				for j := range seg {
					seg[j] = a.fill
				}
			}
		}
		lo = segEnd
	}
}

// Snapshot freezes the array's current contents as an Image. Every
// materialized chunk becomes shared: the source keeps reading it in place
// and copies it on its next write. O(chunks), no element copies.
func (a *table[E]) Snapshot() Image[E] {
	for i, p := range a.chunks {
		if p != nil {
			a.shared[i] = true
		}
	}
	return Image[E]{
		n: a.n, chunkLen: a.chunkLen, fill: a.fill,
		chunks: append([]*E(nil), a.chunks...),
	}
}

// Share points each chunk of img at prev's chunk of the same index wherever
// the two hold the same bytes, so the images keep one copy between them and
// img's own copy is garbage once nothing else holds it. Both images are
// sealed, so their chunks never change again and a clone of either reads
// and copies on write exactly as before. Nil chunks, unequal chunks and
// images of different shapes are left as they are. Share rewrites img's
// chunk table in place, so nothing may restore from img while it runs.
func (img *Image[E]) Share(prev Image[E]) {
	if img.n != prev.n || img.chunkLen != prev.chunkLen || img.fill != prev.fill {
		return
	}
	for i, p := range img.chunks {
		q := prev.chunks[i]
		if p == nil || q == nil || p == q {
			continue
		}
		if bytes.Equal(raw(p, img.chunkLen), raw(q, img.chunkLen)) {
			img.chunks[i] = q
		}
	}
}

// raw is the memory of the chunk of n elements starting at p. Two chunks
// with equal memory are interchangeable.
func raw[E any](p *E, n int64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(p)), uintptr(n)*unsafe.Sizeof(*p))
}

// check panics unless img matches the array's shape.
func (a *table[E]) check(img Image[E]) {
	if img.n != a.n || img.chunkLen != a.chunkLen || img.fill != a.fill {
		panic("cow: Restore shape mismatch")
	}
}

// Restore overwrites the array with an image's contents by aliasing its
// chunks, every one marked shared. The image is only read — any number of
// goroutines may restore from the same image concurrently. Resets the
// copy-on-write counter.
//
// The chunk pointers are copied into the array's own table, which no Image
// ever aliases (Snapshot copies it), so restoring allocates nothing.
func (a *table[E]) Restore(img Image[E]) {
	a.check(img)
	copy(a.chunks, img.chunks)
	for i := range a.shared {
		a.shared[i] = a.chunks[i] != nil
	}
	a.cowed = 0
}

// Stats is chunk-level memory accounting for one or more Arrays. Add-able;
// byte figures count each element at its in-memory size.
type Stats struct {
	OwnedChunks  int64 // chunks this holder may write in place
	SharedChunks int64 // chunks aliasing an image (references, not unique)
	OwnedBytes   int64 // bytes of exclusively owned chunk storage
	SharedBytes  int64 // bytes of shared chunk storage referenced
	CowCopies    int64 // chunks privately copied on first write since Restore
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.OwnedChunks += o.OwnedChunks
	s.SharedChunks += o.SharedChunks
	s.OwnedBytes += o.OwnedBytes
	s.SharedBytes += o.SharedBytes
	s.CowCopies += o.CowCopies
}

// chunkBytes is one chunk's storage size in bytes.
func (a *table[E]) chunkBytes() int64 {
	return a.chunkLen * int64(unsafe.Sizeof(a.fill))
}

// Stats returns the array's current chunk accounting.
func (a *table[E]) Stats() Stats {
	st := Stats{CowCopies: a.cowed}
	b := a.chunkBytes()
	for i, p := range a.chunks {
		if p == nil {
			continue
		}
		if a.shared[i] {
			st.SharedChunks++
			st.SharedBytes += b
		} else {
			st.OwnedChunks++
			st.OwnedBytes += b
		}
	}
	return st
}

// VisitShared calls f once per shared chunk with a comparable identity (the
// chunk's first-element pointer) and the chunk's byte size. Aggregators that
// present many holders of the same image as one tier dedupe on the identity
// to count each image chunk once.
func (a *table[E]) VisitShared(f func(id any, bytes int64)) {
	for i, p := range a.chunks {
		if p != nil && a.shared[i] {
			f(p, a.chunkBytes())
		}
	}
}
