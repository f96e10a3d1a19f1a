package cow

import (
	"math/rand"
	"testing"
)

// model is the flat reference implementation an Array must be
// indistinguishable from.
type model struct {
	els []int64
}

func newModel(n int64, fill int64) *model {
	m := &model{els: make([]int64, n)}
	for i := range m.els {
		m.els[i] = fill
	}
	return m
}

func (m *model) clone() []int64 { return append([]int64(nil), m.els...) }

func checkEqual(t *testing.T, step int, a *Array[int64], m *model) {
	t.Helper()
	for i := int64(0); i < a.Len(); i++ {
		if got, want := a.At(i), m.els[i]; got != want {
			t.Fatalf("step %d: element %d = %d, want %d", step, i, got, want)
		}
	}
	got := make([]int64, a.Len())
	a.CopyOut(0, a.Len(), got)
	for i, v := range got {
		if v != m.els[i] {
			t.Fatalf("step %d: CopyOut[%d] = %d, want %d", step, i, v, m.els[i])
		}
	}
}

// TestArrayVsModel drives random interleavings of every mutation against the
// flat model, including the snapshot orders that distinguish aliasing bugs:
// double-clone from one image, write-after-share and share-after-write.
func TestArrayVsModel(t *testing.T) {
	const (
		n        = 1000
		chunkLen = 64
		fill     = int64(-1)
	)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray[int64](n, chunkLen, fill)
		m := newModel(n, fill)
		var (
			imgs    []Image[int64]
			imgRefs [][]int64
		)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1: // Set
				i := rng.Int63n(n)
				v := rng.Int63n(5) - 1 // includes the fill value
				a.Set(i, v)
				m.els[i] = v
			case 2: // Ptr increment
				i := rng.Int63n(n)
				*a.Ptr(i)++
				m.els[i]++
			case 3: // MutSpan write within one chunk
				ci := rng.Int63n((n + chunkLen - 1) / chunkLen)
				lo := ci * chunkLen
				hi := min(lo+chunkLen, int64(n))
				lo += rng.Int63n(hi - lo)
				sp := a.MutSpan(lo, hi)
				for j := range sp {
					v := rng.Int63n(100)
					sp[j] = v
					m.els[lo+int64(j)] = v
				}
			case 4: // FillRange (erase)
				lo := rng.Int63n(n)
				hi := lo + rng.Int63n(n-lo) + 1
				a.FillRange(lo, hi)
				for i := lo; i < hi; i++ {
					m.els[i] = fill
				}
			case 5, 6: // Snapshot (share-after-write)
				imgs = append(imgs, a.Snapshot())
				imgRefs = append(imgRefs, m.clone())
			case 7, 8: // Restore from a random image (double-clone, write-after-share)
				if len(imgs) == 0 {
					continue
				}
				k := rng.Intn(len(imgs))
				a.Restore(imgs[k])
				copy(m.els, imgRefs[k])
			case 9: // stats sanity: every element is accounted exactly once
				st := a.Stats()
				if st.OwnedChunks+st.SharedChunks > (n+chunkLen-1)/chunkLen {
					t.Fatalf("step %d: more chunks than capacity: %+v", step, st)
				}
			}
			if step%37 == 0 {
				checkEqual(t, step, a, m)
			}
		}
		checkEqual(t, -1, a, m)
		// Earlier images must be unaffected by everything that came after:
		// restore each and compare against the state captured at snapshot time.
		for k := range imgs {
			a.Restore(imgs[k])
			copy(m.els, imgRefs[k])
			checkEqual(t, -2-k, a, m)
		}
	}
}

// TestDeepCopyPathEquivalence runs the same operation script through the COW
// path and the retained deep-copy reference path and requires identical
// observable contents after every step.
func TestDeepCopyPathEquivalence(t *testing.T) {
	const n, chunkLen = 500, 32
	type op struct {
		kind    int
		i, j, v int64
	}
	rng := rand.New(rand.NewSource(7))
	var script []op
	for k := 0; k < 400; k++ {
		o := op{kind: rng.Intn(6), i: rng.Int63n(n), v: rng.Int63n(9)}
		o.j = o.i + rng.Int63n(n-o.i) + 1
		script = append(script, o)
	}
	run := func(deep bool) []int64 {
		SetDeepCopy(deep)
		defer SetDeepCopy(false)
		a := NewArray[int64](n, chunkLen, 0)
		var imgs []Image[int64]
		for _, o := range script {
			switch o.kind {
			case 0, 1:
				a.Set(o.i, o.v)
			case 2:
				a.FillRange(o.i, o.j)
			case 3:
				imgs = append(imgs, a.Snapshot())
			case 4, 5:
				if len(imgs) > 0 {
					a.Restore(imgs[int(o.v)%len(imgs)])
				}
			}
		}
		out := make([]int64, n)
		a.CopyOut(0, n, out)
		return out
	}
	cowOut := run(false)
	deepOut := run(true)
	for i := range cowOut {
		if cowOut[i] != deepOut[i] {
			t.Fatalf("element %d: cow %d != deep %d", i, cowOut[i], deepOut[i])
		}
	}
}

// TestImageShare checks Image.Share: a chunk equal to prev's chunk of the
// same index becomes prev's chunk, while unequal chunks, nil chunks on either
// side and images of another shape stay as they are. Clones restored from
// the two images copy the aliased chunk on their first write and change
// neither image nor each other, with the chunk-sharing path and the
// deep-copy reference path observing the same contents.
func TestImageShare(t *testing.T) {
	const n, chunkLen, fill = 256, 64, int64(-1)
	// Chunk 0 holds the same values in both arrays, chunk 1 different
	// ones; chunk 2 is written in a only, chunk 3 in b only.
	build := func(own int64) *Array[int64] {
		x := NewArray[int64](n, chunkLen, fill)
		for i := int64(0); i < chunkLen; i++ {
			x.Set(i, i)
			x.Set(chunkLen+i, own)
		}
		if own == 1 {
			x.Set(2*chunkLen, 5)
		} else {
			x.Set(3*chunkLen, 5)
		}
		return x
	}
	run := func(deep bool) (imgA, imgB Image[int64], views [][]int64) {
		SetDeepCopy(deep)
		defer SetDeepCopy(false)
		imgA, imgB = build(1).Snapshot(), build(2).Snapshot()
		before := append([]*int64(nil), imgB.chunks...)
		imgB.Share(imgA)
		if deep {
			return imgA, imgB, cloneViews(t, imgA, imgB)
		}
		for ci, want := range []*int64{imgA.chunks[0], before[1], before[2], before[3]} {
			if imgB.chunks[ci] != want {
				t.Errorf("chunk %d after Share: %p, want %p", ci, imgB.chunks[ci], want)
			}
		}
		if imgB.chunks[2] != nil {
			t.Error("Share filled a nil chunk")
		}
		for _, other := range []*Array[int64]{
			NewArray[int64](2*n, chunkLen, fill),
			NewArray[int64](n, chunkLen/2, fill),
			NewArray[int64](n, chunkLen, 0),
		} {
			for i := int64(0); i < chunkLen; i++ {
				other.Set(i, i)
			}
			img := other.Snapshot()
			own := img.chunks[0]
			img.Share(imgA)
			if img.chunks[0] != own {
				t.Errorf("Share aliased a chunk across shapes (n %d, chunk %d, fill %d)", img.n, img.chunkLen, img.fill)
			}
		}
		return imgA, imgB, cloneViews(t, imgA, imgB)
	}
	_, _, cowViews := run(false)
	_, _, deepViews := run(true)
	for v := range cowViews {
		for i := range cowViews[v] {
			if cowViews[v][i] != deepViews[v][i] {
				t.Fatalf("view %d element %d: chunk sharing %d, deep copy %d", v, i, cowViews[v][i], deepViews[v][i])
			}
		}
	}
}

// cloneViews restores one clone from each image, writes each inside the
// chunk the images may alias, and returns what the two clones and fresh
// restores of the two images read afterwards. It checks that each clone
// copied exactly that chunk and that neither write reached the other side.
func cloneViews(t *testing.T, imgA, imgB Image[int64]) [][]int64 {
	t.Helper()
	read := func(img Image[int64]) []int64 {
		x := NewArray[int64](img.n, img.chunkLen, img.fill)
		x.Restore(img)
		out := make([]int64, img.n)
		x.CopyOut(0, img.n, out)
		return out
	}
	ca := NewArray[int64](imgA.n, imgA.chunkLen, imgA.fill)
	cb := NewArray[int64](imgB.n, imgB.chunkLen, imgB.fill)
	ca.Restore(imgA)
	cb.Restore(imgB)
	ca.Set(5, 100)
	cb.Set(6, 200)
	views := [][]int64{read(imgA), read(imgB), make([]int64, imgA.n), make([]int64, imgB.n)}
	ca.CopyOut(0, imgA.n, views[2])
	cb.CopyOut(0, imgB.n, views[3])
	for i, v := range views {
		want5, want6 := int64(5), int64(6)
		switch i {
		case 2:
			want5 = 100
		case 3:
			want6 = 200
		}
		if v[5] != want5 || v[6] != want6 {
			t.Errorf("view %d reads %d, %d at 5, 6; want %d, %d", i, v[5], v[6], want5, want6)
		}
	}
	if !deepCopy && (ca.Stats().CowCopies != 1 || cb.Stats().CowCopies != 1) {
		t.Errorf("clones copied %d and %d chunks, want 1 each", ca.Stats().CowCopies, cb.Stats().CowCopies)
	}
	return views
}

// TestSetFillIntoAbsentChunkAllocatesNothing pins the lazy representation: a
// fresh array writes of the fill value stay at zero materialized chunks.
func TestSetFillIntoAbsentChunkAllocatesNothing(t *testing.T) {
	a := NewArray[int64](128, 16, -1)
	for i := int64(0); i < 128; i++ {
		a.Set(i, -1)
	}
	if st := a.Stats(); st.OwnedChunks != 0 || st.SharedChunks != 0 {
		t.Fatalf("fill writes materialized chunks: %+v", st)
	}
	a.FillRange(0, 128)
	if st := a.Stats(); st.OwnedChunks != 0 {
		t.Fatalf("FillRange materialized chunks: %+v", st)
	}
}

// TestCowAccounting pins the copy-on-first-write contract: restoring is free,
// the first write to a shared chunk copies it exactly once, and untouched
// chunks stay shared.
func TestCowAccounting(t *testing.T) {
	const n, chunkLen = 256, 16
	a := NewArray[int64](n, chunkLen, 0)
	for i := int64(0); i < n; i++ {
		a.Set(i, i)
	}
	img := a.Snapshot()
	b := NewArray[int64](n, chunkLen, 0)
	b.Restore(img)
	if st := b.Stats(); st.OwnedChunks != 0 || st.SharedChunks != n/chunkLen || st.CowCopies != 0 {
		t.Fatalf("after restore: %+v", st)
	}
	b.Set(3, 99)
	b.Set(5, 98) // same chunk: no second copy
	if st := b.Stats(); st.CowCopies != 1 || st.OwnedChunks != 1 || st.SharedChunks != n/chunkLen-1 {
		t.Fatalf("after first write: %+v", st)
	}
	if a.At(3) != 3 || b.At(3) != 99 {
		t.Fatalf("write leaked across the image: a=%d b=%d", a.At(3), b.At(3))
	}
	// The writer-side source also copies on its first post-snapshot write.
	a.Set(200, -7)
	if st := a.Stats(); st.CowCopies != 1 {
		t.Fatalf("source write did not COW: %+v", st)
	}
	if b.At(200) != 200 {
		t.Fatal("source write leaked into the clone")
	}
	// VisitShared identities dedupe across holders of the same image.
	seen := map[any]int64{}
	for _, arr := range []*Array[int64]{a, b} {
		arr.VisitShared(func(id any, bytes int64) { seen[id] = bytes })
	}
	var unique int64
	for _, b := range seen {
		unique += b
	}
	// a still references 15 image chunks (it COWed #12), b references 15 (it
	// COWed #0); the union is all 16 image chunks, counted once each.
	if want := int64(n) * 8; unique != want {
		t.Fatalf("unique shared bytes = %d, want %d", unique, want)
	}
}

// TestRestoreZeroAlloc pins that restoring onto a same-shape array reuses
// its chunk table: aliasing an image's chunks copies pointers, nothing more.
func TestRestoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	const n, chunkLen = 1 << 12, 16
	a := NewArray[int32](n, chunkLen, -1)
	for i := int64(0); i < n; i += 3 {
		a.Set(i, int32(i))
	}
	img := a.Snapshot()
	b := NewArray[int32](n, chunkLen, -1)
	if avg := testing.AllocsPerRun(100, func() { b.Restore(img) }); avg != 0 {
		t.Fatalf("Restore allocated %.2f objects/op, want 0", avg)
	}
	if b.At(3) != 3 || b.At(4) != -1 {
		t.Fatalf("restored array reads %d, %d; want 3, -1", b.At(3), b.At(4))
	}
}

// TestElementOpsAtChunkBoundaries pins shift-and-mask indexing against the
// flat model at every chunk boundary (the last element of a chunk and the
// first of the next) for each chunk length the simulator constructs, on
// absent, owned and shared chunks alike.
func TestElementOpsAtChunkBoundaries(t *testing.T) {
	for _, chunkLen := range []int64{16, 32, 64, 256} {
		n := 5*chunkLen + chunkLen/2 // a partial last chunk
		a := NewArray[int64](n, chunkLen, -1)
		m := newModel(n, -1)
		var edges []int64
		for k := int64(1); k*chunkLen <= n; k++ {
			edges = append(edges, k*chunkLen-1)
			if k*chunkLen < n {
				edges = append(edges, k*chunkLen)
			}
		}
		for round := int64(0); round < 3; round++ {
			for j, i := range edges {
				if got := a.At(i); got != m.els[i] {
					t.Fatalf("chunk %d round %d: At(%d) = %d, want %d", chunkLen, round, i, got, m.els[i])
				}
				v := round*1000 + int64(j)
				a.Set(i, v)
				m.els[i] = v
				*a.Ptr(i) += 7
				m.els[i] += 7
			}
			checkEqual(t, int(round), a, m)
			// Share every chunk, so the next round's writes copy on write
			// through Set and Ptr.
			b := NewArray[int64](n, chunkLen, -1)
			b.Restore(a.Snapshot())
			a = b
		}
	}
}

// TestNewArrayRequiresPowerOfTwoChunk pins the precondition of shift
// indexing: an Array whose chunk length is not a power of two cannot be
// constructed, so no element op can index one wrongly. Stores with such
// chunk lengths are Bytes, which has range ops only.
func TestNewArrayRequiresPowerOfTwoChunk(t *testing.T) {
	for _, chunkLen := range []int64{0, -4, 3, 48, 6144 * 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray with chunk length %d did not panic", chunkLen)
				}
			}()
			NewArray[int32](1000, chunkLen, 0)
		}()
	}
}

// TestBytesRangeOpsVsModel drives a Bytes store whose chunk length is not a
// power of two through spans, fills, snapshots and restores against a flat
// byte slice.
func TestBytesRangeOpsVsModel(t *testing.T) {
	const span, chunkLen = 6, 6 * 5 // 5 spans per 30-byte chunk
	const n = 7 * chunkLen
	rng := rand.New(rand.NewSource(3))
	a := NewBytes(n, chunkLen)
	m := make([]byte, n)
	var imgs []Image[byte]
	var refs [][]byte
	got := make([]byte, n)
	for step := 0; step < 500; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			lo := rng.Int63n(n/span) * span
			sp := a.MutSpan(lo, lo+span)
			for j := range sp {
				sp[j] = byte(rng.Intn(256))
				m[lo+int64(j)] = sp[j]
			}
		case 2:
			lo := rng.Int63n(n)
			hi := lo + rng.Int63n(n-lo) + 1
			a.FillRange(lo, hi)
			clear(m[lo:hi])
		case 3:
			imgs = append(imgs, a.Snapshot())
			refs = append(refs, append([]byte(nil), m...))
		case 4:
			if len(imgs) > 0 {
				k := rng.Intn(len(imgs))
				b := NewBytes(n, chunkLen)
				b.Restore(imgs[k])
				a = b
				copy(m, refs[k])
			}
		}
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(n-lo) + 1
		a.CopyOut(lo, hi, got[:hi-lo])
		for i := lo; i < hi; i++ {
			if got[i-lo] != m[i] {
				t.Fatalf("step %d: byte %d = %d, want %d", step, i, got[i-lo], m[i])
			}
		}
	}
}
