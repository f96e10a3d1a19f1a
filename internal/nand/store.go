package nand

import "ssdtp/internal/cow"

// pageStore holds page payloads in lazily allocated fixed-size chunks of
// contiguous pages (a cow.Bytes store). Chunking keeps sparse stores
// cheap — untouched regions allocate nothing — while making the dense case
// (a prefilled drive) a handful of large flat buffers; the COW layer lets a
// snapshot seal those buffers as a shared image so clones alias them and
// copy a chunk only on first write.
//
// A zeroed (or never-allocated) page region is indistinguishable from a
// programmed page whose payload was not stored: both read as zeros, matching
// the old map-miss semantics. The erased-page 0xFF pattern is synthesized by
// Chip.Read from the block's program cursor before the store is consulted,
// so the store never needs a presence bit.
const pagesPerChunk = 64

type pageStore struct {
	pageSize int
	arr      *cow.Bytes
}

func newPageStore(pageSize int, pages int64) *pageStore {
	return &pageStore{
		pageSize: pageSize,
		arr:      cow.NewBytes(pages*int64(pageSize), pagesPerChunk*int64(pageSize)),
	}
}

// put copies data into the page's slot, materializing or privatizing its
// chunk on first touch. Pages never straddle chunks: the chunk length is a
// whole multiple of the page size.
func (s *pageStore) put(idx int64, data []byte) {
	off := idx * int64(s.pageSize)
	copy(s.arr.MutSpan(off, off+int64(s.pageSize)), data)
}

// read copies the page's payload into buf; zeros if the chunk was never
// materialized (never-stored payload).
func (s *pageStore) read(idx int64, buf []byte) {
	off := idx * int64(s.pageSize)
	s.arr.CopyOut(off, off+int64(s.pageSize), buf)
}

// zeroRange clears payloads for pages [base, base+n). Chunk-aligned spans
// release their chunks outright — an erase of a chunk's worth of pages costs
// no copy even when the chunk is shared with an image.
func (s *pageStore) zeroRange(base, n int64) {
	s.arr.FillRange(base*int64(s.pageSize), (base+n)*int64(s.pageSize))
}
