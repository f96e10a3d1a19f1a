package cow

// The deep-copy reference path: snapshots and restores that copy every chunk
// instead of sharing it. Chunk sharing must be observationally
// indistinguishable from it, which the tests in this package check by
// running one script through both paths.

// SnapshotDeep is Snapshot by copying: the image gets private copies of
// every chunk and the source keeps exclusive ownership.
func (a *table[E]) SnapshotDeep() Image[E] {
	chunks := make([]*E, len(a.chunks))
	for i, p := range a.chunks {
		if p != nil {
			chunks[i] = a.clone(p)
		}
	}
	return Image[E]{
		n: a.n, chunkLen: a.chunkLen, fill: a.fill,
		chunks: chunks,
	}
}

// RestoreDeep is Restore by copying: every image chunk is copied into a
// chunk the array owns exclusively.
func (a *table[E]) RestoreDeep(img Image[E]) {
	a.check(img)
	for i, p := range img.chunks {
		if p == nil {
			a.chunks[i] = nil
			a.shared[i] = false
			continue
		}
		if dst := a.chunks[i]; dst != nil && !a.shared[i] {
			copy(a.span(dst), a.span(p))
			continue
		}
		a.chunks[i] = a.clone(p)
		a.shared[i] = false
	}
	a.cowed = 0
}

// snapshot and restore run Snapshot and Restore, or with deep set their
// deep-copy references.
func snapshot[E comparable](a *Array[E], deep bool) Image[E] {
	if deep {
		return a.SnapshotDeep()
	}
	return a.Snapshot()
}

func restore[E comparable](a *Array[E], img Image[E], deep bool) {
	if deep {
		a.RestoreDeep(img)
	} else {
		a.Restore(img)
	}
}
