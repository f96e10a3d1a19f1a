package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const page = 16384

func TestNewKnownSchemes(t *testing.T) {
	for _, name := range SchemeNames {
		s, err := New(name, page)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
	if _, err := New("zstd", page); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestNewRejectsBadPageSize(t *testing.T) {
	// A page size of zero or less would make the first write loop forever
	// emitting empty pages; New must refuse it for every scheme.
	for _, name := range SchemeNames {
		for _, ps := range []int{0, -1, -16384} {
			if s, err := New(name, ps); err == nil {
				t.Errorf("New(%q, %d) = %v, want an error", name, ps, s.Name())
			}
		}
	}
}

func TestNoneWritesFullSectors(t *testing.T) {
	s, _ := New("none", page)
	// 4 sectors fill one 16KB page exactly.
	for i := int64(0); i < 4; i++ {
		s.WriteSector(i, 0.1) // ratio ignored
	}
	if got := s.PagesWritten(); got != 1 {
		t.Errorf("PagesWritten = %d, want 1", got)
	}
}

func TestCompressionReducesPages(t *testing.T) {
	none, _ := New("none", page)
	comp, _ := New("compact", page)
	for i := int64(0); i < 1000; i++ {
		none.WriteSector(i, 0.25)
		comp.WriteSector(i, 0.25)
	}
	if comp.PagesWritten() >= none.PagesWritten() {
		t.Errorf("compact (%d pages) not below none (%d)", comp.PagesWritten(), none.PagesWritten())
	}
}

func TestChunkRMWAmplifies(t *testing.T) {
	// Random single-sector overwrites: chunk4 rewrites 16KB per update,
	// compact rewrites ~1KB. chunk4 must write several times more pages.
	compact, _ := New("compact", page)
	chunk4, _ := New("chunk4", page)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 4096; i++ { // prime
		compact.WriteSector(i, 0.25)
		chunk4.WriteSector(i, 0.25)
	}
	c0, k0 := compact.PagesWritten(), chunk4.PagesWritten()
	for n := 0; n < 20000; n++ {
		id := rng.Int63n(4096)
		compact.WriteSector(id, 0.25)
		chunk4.WriteSector(id, 0.25)
	}
	dc, dk := compact.PagesWritten()-c0, chunk4.PagesWritten()-k0
	if dk < 2*dc {
		t.Errorf("chunk4 wrote %d pages vs compact %d; expected >2x RMW amplification", dk, dc)
	}
}

func TestBucketSlackCostsPages(t *testing.T) {
	// Ratio chosen so compressed size lands just above a bucket boundary.
	bp, _ := New("bp32", page)
	re, _ := New("re-bp32", page)
	for i := int64(0); i < 8192; i++ {
		bp.WriteSector(i, 0.14) // ~590B -> 1024B bucket (42% slack)
		re.WriteSector(i, 0.14)
	}
	if bp.PagesWritten() <= re.PagesWritten() {
		t.Errorf("bp32 (%d) not above re-bp32 (%d) despite bucket slack", bp.PagesWritten(), re.PagesWritten())
	}
}

func TestCleaningTriggersUnderOverwrite(t *testing.T) {
	s := newPacked("compact", page, packedOpts{bucket: 1, headroom: 0.22})
	rng := rand.New(rand.NewSource(2))
	for i := int64(0); i < 2048; i++ {
		s.WriteSector(i, 0.3)
	}
	for n := 0; n < 50000; n++ {
		s.WriteSector(rng.Int63n(2048), 0.3)
	}
	if s.log.cleanWrites == 0 {
		t.Error("no cleaning despite sustained overwrites")
	}
	// Capacity bound respected (within one cleaning round of slack).
	budget := float64(s.log.liveBytes)*(1+s.log.headroom) + 2*float64(page)
	if float64(s.log.totalBytes) > budget*1.05 {
		t.Errorf("log grew to %d, budget %.0f", s.log.totalBytes, budget)
	}
}

func TestJointRatioMonotone(t *testing.T) {
	r := 0.4
	if JointRatio(r, 1) != r {
		t.Error("k=1 must be identity")
	}
	if !(JointRatio(r, 4) < JointRatio(r, 2) && JointRatio(r, 2) < r) {
		t.Errorf("joint ratios not improving: k2=%v k4=%v", JointRatio(r, 2), JointRatio(r, 4))
	}
	if JointRatio(0.02, 64) <= 0 {
		t.Error("joint ratio must stay positive")
	}
}

func TestCompressedSizeBounds(t *testing.T) {
	if got := compressedSize(4096, 2.0); got != 4096 {
		t.Errorf("incompressible data must cap at original size, got %d", got)
	}
	if got := compressedSize(4096, 0.0); got < 16 {
		t.Errorf("size below header: %d", got)
	}
}

// Property: liveBytes never exceeds totalBytes and never goes negative
// under arbitrary overwrite streams, on every scheme.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, name := range SchemeNames {
			s, _ := New(name, page)
			for n := 0; n < int(ops%500)+50; n++ {
				if rng.Intn(5) == 0 {
					s.Append(rng.Intn(2048)+64, 0.5)
				} else {
					s.WriteSector(rng.Int63n(256), 0.1+0.8*rng.Float64())
				}
			}
			var la *logAccount
			switch v := s.(type) {
			case *packed:
				la = &v.log
			case *chunked:
				la = &v.log
			}
			if la.liveBytes < 0 || la.liveBytes > la.totalBytes+int64(page) {
				return false
			}
			if s.PagesWritten() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refScheme is the part of Scheme the reference implementations provide.
type refScheme interface {
	WriteSector(id int64, ratio float64)
	Append(n int, ratio float64)
}

// mapPacked and mapChunked are packed and chunked with the map-backed size
// tables that sizeTable replaced, kept as the reference
// TestSchemesMatchMapReference checks the schemes against.
type mapPacked struct {
	opts packedOpts
	log  logAccount
	size map[int64]int
}

func (p *mapPacked) stored(n int, ratio float64) int {
	if p.opts.incompressible {
		return n
	}
	s := compressedSize(n, ratio)
	b := p.opts.bucket
	return (s + b - 1) / b * b
}

func (p *mapPacked) WriteSector(id int64, ratio float64) {
	if old, ok := p.size[id]; ok {
		p.log.invalidateBytes(old)
	}
	s := p.stored(SectorSize, ratio)
	p.size[id] = s
	p.log.appendBytes(s)
}

func (p *mapPacked) Append(n int, ratio float64) {
	p.log.appendBytes(p.stored(n, ratio))
}

type mapChunked struct {
	k    int
	log  logAccount
	size map[int64]int
	solo map[int64]int
}

func (c *mapChunked) WriteSector(id int64, ratio float64) {
	per := compressedSize(SectorSize, ratio)
	if per > fallbackThreshold {
		if old, ok := c.solo[id]; ok {
			c.log.invalidateBytes(old)
		}
		c.solo[id] = per
		c.log.appendBytes(per)
		return
	}
	chunk := id / int64(c.k)
	if old, ok := c.size[chunk]; ok {
		c.log.invalidateBytes(old)
	}
	for s := chunk * int64(c.k); s < (chunk+1)*int64(c.k); s++ {
		if old, ok := c.solo[s]; ok {
			c.log.invalidateBytes(old)
			delete(c.solo, s)
		}
	}
	s := compressedSize(c.k*SectorSize, JointRatio(ratio, c.k))
	c.size[chunk] = s
	c.log.appendBytes(s)
}

func (c *mapChunked) Append(n int, ratio float64) {
	c.log.appendBytes(compressedSize(n, ratio))
}

// sameEntries reports whether a dense table and a map hold the same
// entries.
func sameEntries(dense sizeTable, ref map[int64]int) bool {
	n := 0
	for id, s := range dense {
		if s != 0 {
			n++
			if ref[int64(id)] != int(s) {
				return false
			}
		}
	}
	return n == len(ref)
}

// Every scheme accounts exactly as its map-backed reference, op for op, on
// random streams of writes and appends: ids spread log-uniformly so they
// cross the table's doubling steps, ratios on both sides of the chunked
// schemes' solo fallback, and a small hot range where solo sectors are
// later folded into a chunk.
func TestSchemesMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, name := range SchemeNames {
			s, err := New(name, page)
			if err != nil {
				t.Fatal(err)
			}
			var (
				log, rlog *logAccount
				ref       refScheme
			)
			switch v := s.(type) {
			case *packed:
				o := &mapPacked{opts: v.opts, log: v.log, size: map[int64]int{}}
				log, ref, rlog = &v.log, o, &o.log
			case *chunked:
				o := &mapChunked{k: v.k, log: v.log, size: map[int64]int{}, solo: map[int64]int{}}
				log, ref, rlog = &v.log, o, &o.log
			}
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				ratio := 0.05 + 0.95*rng.Float64()
				switch r := rng.Intn(8); {
				case r == 0:
					n := rng.Intn(3*SectorSize) + 1
					s.Append(n, ratio)
					ref.Append(n, ratio)
				case r < 4:
					id := rng.Int63n(64)
					s.WriteSector(id, ratio)
					ref.WriteSector(id, ratio)
				default:
					id := rng.Int63n(1 << rng.Intn(14))
					s.WriteSector(id, ratio)
					ref.WriteSector(id, ratio)
				}
				if *log != *rlog {
					t.Fatalf("%s seed %d op %d: log %+v, reference %+v", name, seed, op, *log, *rlog)
				}
			}
			switch v := s.(type) {
			case *packed:
				if !sameEntries(v.size, ref.(*mapPacked).size) {
					t.Errorf("%s seed %d: size table differs from reference", name, seed)
				}
			case *chunked:
				o := ref.(*mapChunked)
				if !sameEntries(v.size, o.size) || !sameEntries(v.solo, o.solo) {
					t.Errorf("%s seed %d: size tables differ from reference", name, seed)
				}
				if len(o.solo) == 0 {
					t.Errorf("%s seed %d: stream stored no sector solo", name, seed)
				}
			}
		}
	}
}
