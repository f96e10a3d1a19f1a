// Package compress models intra-SSD compression schemes — the FTL feature
// the paper's Figure 2 uses to illustrate how much an opaque,
// implementation-specific firmware choice can move device lifetime (§2,
// citing Zuck et al., INFLOW'14). Commercial drives ship such schemes
// (Intel, Kingston/SandForce DuraWrite) without documenting them.
//
// Each Scheme consumes a stream of logical 4 KB sector updates with known
// compressibility and accounts the flash page writes it induces, including
// log cleaning (modeled with the standard uniform-victim approximation of
// Desnoyers, SYSTOR'12, which the paper cites). The schemes:
//
//   - none:    no compression; sectors occupy full slots.
//   - compact: each 4 KB request compressed separately and byte-packed at
//     the log head (the paper's description); cheap on foreground writes,
//     ordinary cleaning.
//   - chunk2/chunk4: 8/16 KB of neighboring data compressed together
//     (the paper's "chunk4 compresses 16KB worth of data together");
//     better ratios, but updating one sector rewrites the whole chunk.
//   - bp32:    per-sector compression into page/32 (512 B) buckets;
//     no chunk RMW, but bucket round-up wastes space.
//   - re-bp32: bucket packing with repacking on flush (no bucket slack)
//     and a reserved cleaning pool — the best of both, and the
//     normalization baseline of Figure 2.
//
// The exact INFLOW'14 scheme internals are not public; these definitions
// reproduce the documented behaviours (per-request vs chunked compression,
// packing granularity) and the figure's headline shape. See EXPERIMENTS.md.
package compress

import (
	"fmt"
	"math"
)

// SectorSize is the logical update granularity.
const SectorSize = 4096

// SchemeNames lists the available schemes in presentation order.
var SchemeNames = []string{"none", "compact", "chunk2", "chunk4", "bp32", "re-bp32"}

// Scheme consumes sector updates and accounts flash writes.
type Scheme interface {
	// Name returns the scheme identifier.
	Name() string
	// WriteSector records an overwrite of logical sector id whose contents
	// compress to ratio (0..1] of their size. Ids are non-negative and
	// dense, like LBAs: a scheme's memory is O(largest id written).
	WriteSector(id int64, ratio float64)
	// Append records a log-style append (redo records) of n bytes with the
	// given compressibility; appends are never overwritten in place.
	Append(n int, ratio float64)
	// PagesWritten returns total flash pages written so far, including
	// cleaning traffic.
	PagesWritten() int64
}

// New constructs a scheme by name over the given flash page size, which
// must be positive.
func New(name string, pageSize int) (Scheme, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("compress: page size %d must be positive", pageSize)
	}
	switch name {
	case "none":
		return newPacked(name, pageSize, packedOpts{bucket: SectorSize, incompressible: true, headroom: 0.28}), nil
	case "compact":
		return newPacked(name, pageSize, packedOpts{bucket: 1, headroom: 0.24}), nil
	case "chunk2":
		return newChunked(name, pageSize, 2), nil
	case "chunk4":
		return newChunked(name, pageSize, 4), nil
	case "bp32":
		return newPacked(name, pageSize, packedOpts{bucket: pageSize / 32, headroom: 0.28}), nil
	case "re-bp32":
		return newPacked(name, pageSize, packedOpts{bucket: 1, headroom: 0.28, recompressClean: true}), nil
	default:
		return nil, fmt.Errorf("compress: unknown scheme %q", name)
	}
}

// JointRatio returns the effective ratio when k sectors of individual ratio
// r compress together: shared dictionaries improve the ratio with
// diminishing returns (calibrated against the chunk-vs-per-request spread
// of Zuck et al.'s INFLOW'14 measurements, which Figure 2 reproduces).
func JointRatio(r float64, k int) float64 {
	if k <= 1 {
		return r
	}
	bonus := 1 - 0.11*math.Log2(float64(k))*2 // k=2: 0.78, k=4: 0.56
	out := r * bonus
	if out < 0.02 {
		out = 0.02
	}
	return out
}

// compressedSize returns the stored size of n logical bytes at ratio r,
// including a per-blob header.
func compressedSize(n int, r float64) int {
	const header = 16
	s := int(float64(n)*r) + header
	if s > n {
		s = n
	}
	if s < header {
		s = header
	}
	return s
}

// logAccount is the shared log-structured space model: byte-granularity
// liveness with uniform-victim cleaning (Desnoyers' analytic approximation).
type logAccount struct {
	pageSize int
	headroom float64 // over-provisioning fraction of live bytes
	// recompressClean shrinks relocated bytes by the joint bonus
	// (recompression during compaction).
	recompressClean bool

	head         int // bytes in the open page
	pagesWritten int64
	liveBytes    int64 // bytes still referenced in closed pages + head
	totalBytes   int64 // bytes appended and not yet reclaimed
	cleanWrites  int64
}

// appendBytes writes n live bytes at the log head, emitting pages as they
// fill, and runs cleaning when the capacity budget is exceeded.
func (l *logAccount) appendBytes(n int) {
	l.head += n
	l.liveBytes += int64(n)
	l.totalBytes += int64(n)
	for l.head >= l.pageSize {
		l.head -= l.pageSize
		l.pagesWritten++
	}
	l.maybeClean()
}

// invalidateBytes marks previously appended bytes dead.
func (l *logAccount) invalidateBytes(n int) {
	l.liveBytes -= int64(n)
}

// maybeClean reclaims space when the log exceeds live*(1+headroom),
// relocating the live fraction of uniformly chosen victim pages.
func (l *logAccount) maybeClean() {
	if l.liveBytes <= 0 {
		l.totalBytes = int64(l.head)
		return
	}
	budget := float64(l.liveBytes) * (1 + l.headroom)
	if budget < float64(2*l.pageSize) {
		budget = float64(2 * l.pageSize)
	}
	for float64(l.totalBytes) > budget && l.totalBytes > int64(l.pageSize) {
		// Victim utilization equals average utilization under uniform
		// victim choice.
		u := float64(l.liveBytes) / float64(l.totalBytes)
		if u >= 0.999 {
			return // nothing reclaimable
		}
		relocated := u * float64(l.pageSize)
		stored := relocated
		if l.recompressClean {
			stored = relocated * 0.96 // compaction recompresses jointly
			l.liveBytes -= int64(relocated - stored)
			if l.liveBytes < 0 {
				l.liveBytes = 0
			}
		}
		// The victim page is reclaimed; its live bytes are rewritten at
		// the log head.
		l.totalBytes -= int64(l.pageSize)
		l.totalBytes += int64(stored)
		l.head += int(stored)
		for l.head >= l.pageSize {
			l.head -= l.pageSize
			l.pagesWritten++
			l.cleanWrites++
		}
	}
}

// sizeTable holds the live stored size per id (sector or chunk), indexed
// directly by the id. 0 means absent, which is unambiguous because every
// stored size includes the blob header. The table doubles when a higher id
// is first written.
type sizeTable []int32

// get returns the size stored for id, or 0 if there is none.
func (t sizeTable) get(id int64) int {
	if id < int64(len(t)) {
		return int(t[id])
	}
	return 0
}

// set stores size s for id; s = 0 removes the entry.
func (t *sizeTable) set(id int64, s int) {
	if id >= int64(len(*t)) {
		n := max(2*int64(len(*t)), id+1)
		grown := make(sizeTable, n)
		copy(grown, *t)
		*t = grown
	}
	(*t)[id] = int32(s)
}

// packedOpts parameterize byte/bucket-packed schemes.
type packedOpts struct {
	bucket          int  // round stored blobs up to this granularity (1 = tight)
	incompressible  bool // ignore ratio (scheme "none")
	headroom        float64
	recompressClean bool
}

// packed implements none/compact/bp32/re-bp32: per-sector blobs packed into
// the log at bucket granularity.
type packed struct {
	name string
	opts packedOpts
	log  logAccount
	size sizeTable // live stored size per sector id
}

func newPacked(name string, pageSize int, o packedOpts) *packed {
	if o.bucket < 1 {
		o.bucket = 1
	}
	return &packed{
		name: name,
		opts: o,
		log:  logAccount{pageSize: pageSize, headroom: o.headroom, recompressClean: o.recompressClean},
	}
}

func (p *packed) Name() string { return p.name }

func (p *packed) stored(n int, ratio float64) int {
	if p.opts.incompressible {
		return n
	}
	s := compressedSize(n, ratio)
	b := p.opts.bucket
	return (s + b - 1) / b * b
}

// WriteSector implements Scheme.
func (p *packed) WriteSector(id int64, ratio float64) {
	if old := p.size.get(id); old != 0 {
		p.log.invalidateBytes(old)
	}
	s := p.stored(SectorSize, ratio)
	p.size.set(id, s)
	p.log.appendBytes(s)
}

// Append implements Scheme.
func (p *packed) Append(n int, ratio float64) {
	p.log.appendBytes(p.stored(n, ratio))
}

// PagesWritten implements Scheme.
func (p *packed) PagesWritten() int64 { return p.log.pagesWritten }

// fallbackThreshold: when a sector's own compressed size exceeds this,
// chunked schemes store it individually instead of recompressing the whole
// chunk — joint compression no longer pays for the read-modify-write.
const fallbackThreshold = SectorSize * 3 / 4

// chunked implements chunk2/chunk4: k neighboring sectors compress as one
// blob; a partial update rewrites the whole chunk (read-modify-write).
// Poorly compressible sectors fall back to individual storage.
type chunked struct {
	name string
	k    int
	log  logAccount
	size sizeTable // live stored size per chunk id
	solo sizeTable // live stored size per individually-stored sector
}

func newChunked(name string, pageSize, k int) *chunked {
	return &chunked{
		name: name,
		k:    k,
		log:  logAccount{pageSize: pageSize, headroom: 0.28},
	}
}

func (c *chunked) Name() string { return c.name }

// WriteSector implements Scheme: the containing chunk is recompressed and
// rewritten in full, unless compression pays too little for the RMW cost.
func (c *chunked) WriteSector(id int64, ratio float64) {
	per := compressedSize(SectorSize, ratio)
	if per > fallbackThreshold {
		if old := c.solo.get(id); old != 0 {
			c.log.invalidateBytes(old)
		}
		c.solo.set(id, per)
		c.log.appendBytes(per)
		return
	}
	chunk := id / int64(c.k)
	if old := c.size.get(chunk); old != 0 {
		c.log.invalidateBytes(old)
	}
	// Any individually stored siblings fold into the new chunk blob.
	for s := chunk * int64(c.k); s < (chunk+1)*int64(c.k); s++ {
		if old := c.solo.get(s); old != 0 {
			c.log.invalidateBytes(old)
			c.solo.set(s, 0)
		}
	}
	s := compressedSize(c.k*SectorSize, JointRatio(ratio, c.k))
	c.size.set(chunk, s)
	c.log.appendBytes(s)
}

// Append implements Scheme: appends are chunked too (k sectors at a time
// benefit from joint compression once enough bytes accumulate; modeled per
// call).
func (c *chunked) Append(n int, ratio float64) {
	c.log.appendBytes(compressedSize(n, ratio))
}

// PagesWritten implements Scheme.
func (c *chunked) PagesWritten() int64 { return c.log.pagesWritten }
