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
