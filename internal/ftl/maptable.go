package ftl

import "ssdtp/internal/cow"

// mapTable is one of the FTL's dense mapping tables (l2p or p2l): int64
// sector numbers at the FTL's API, int32 in storage. Halving the element
// halves every copy-on-write chunk copy and every cache line the mapping
// hot path (commitMapping) touches. Config.Validate rejects geometries with
// more than math.MaxInt32 physical sectors, so every sector number and
// the negative sentinels (psnFree, psnParity, psnMapMeta) fit; the
// conversions below never truncate.
type mapTable struct{ *cow.Array[int32] }

func newMapTable(n int64) mapTable {
	return mapTable{cow.NewArray[int32](n, mapChunk, int32(psnFree))}
}

// At returns entry i.
func (t mapTable) At(i int64) int64 { return int64(t.Array.At(i)) }

// Set stores v at i.
func (t mapTable) Set(i, v int64) { t.Array.Set(i, int32(v)) }
