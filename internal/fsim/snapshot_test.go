package fsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// driveAfterClone runs a deterministic post-materialization op mix — the kind
// of traffic a benchmark would issue — and returns a behavior fingerprint.
func driveAfterClone(t *testing.T, fs FS, disk *MemDisk) []string {
	t.Helper()
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("post/f%03d", i)
		if err := fs.Create(name); err != nil {
			t.Fatalf("Create(%s): %v", name, err)
		}
		if err := fs.Write(name, 0, int64(4096*(1+i%7))); err != nil {
			t.Fatalf("Write(%s): %v", name, err)
		}
		if i%3 == 0 {
			if err := fs.Append(name, 8192); err != nil {
				t.Fatalf("Append(%s): %v", name, err)
			}
		}
	}
	for i := 0; i < 40; i += 4 {
		if err := fs.Delete(fmt.Sprintf("post/f%03d", i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return []string{
		fmt.Sprintf("files=%v", fs.Files()),
		fmt.Sprintf("used=%d", fs.UsedBytes()),
		fmt.Sprintf("disk=%+v", *disk),
	}
}

// TestFSImageCloneEquivalence ages each file system, snapshots it, and checks
// that (a) two materializations of one image behave identically under the
// same traffic, and (b) materializing does not disturb the image or the
// source.
func TestFSImageCloneEquivalence(t *testing.T) {
	const diskCap = 256 << 20
	for _, kind := range []string{"extfs", "logfs"} {
		t.Run(kind, func(t *testing.T) {
			src := &MemDisk{Cap: diskCap}
			var fs FS
			var snap func() FSImage
			switch kind {
			case "extfs":
				e := NewExtFS(src)
				fs, snap = e, e.Snapshot
			case "logfs":
				l := NewLogFS(src)
				fs, snap = l, l.Snapshot
			}
			Age(fs, AgeA, 7)
			img := snap()

			agedFiles := fs.Files()
			agedUsed := fs.UsedBytes()

			d1 := &MemDisk{Cap: diskCap}
			fp1 := driveAfterClone(t, img.Materialize(d1), d1)
			d2 := &MemDisk{Cap: diskCap}
			fp2 := driveAfterClone(t, img.Materialize(d2), d2)
			if !reflect.DeepEqual(fp1, fp2) {
				t.Fatalf("two materializations diverged:\n%v\nvs\n%v", fp1, fp2)
			}

			// The source and the image must be untouched by the clones' work.
			if got := fs.Files(); !reflect.DeepEqual(got, agedFiles) {
				t.Fatalf("source file set mutated by clone activity")
			}
			if got := fs.UsedBytes(); got != agedUsed {
				t.Fatalf("source UsedBytes mutated: %d != %d", got, agedUsed)
			}

			// A clone must behave like the source under identical traffic.
			srcFP := driveAfterClone(t, fs, src)
			d3 := &MemDisk{Cap: diskCap}
			cloneFP := driveAfterClone(t, img.Materialize(d3), d3)
			// Disk counters differ (the source disk saw format+aging), so
			// compare only the FS-visible lines.
			if !reflect.DeepEqual(srcFP[:2], cloneFP[:2]) {
				t.Fatalf("clone diverged from source:\n%v\nvs\n%v", cloneFP[:2], srcFP[:2])
			}
		})
	}
}

// logState is a LogFS's whole in-memory state in comparable form: inode
// pointers become slots, and a deleted file's dirty-list entry, which only
// holds a place until the checkpoint, becomes slot 0.
type logState struct {
	Scalars   LogFS // every field but the disk, slices and maps
	FreeSegs  []int64
	LiveCount []int32
	SegType   []uint8
	Owner     []blockOwner
	FreeInos  []int32
	Inodes    []logInode // a free slot is the zero inode
	Files     map[string]int32
	Dirs      map[string]int32
	Dirty     []int32
}

func logStateOf(fs *LogFS) logState {
	st := logState{
		Scalars:   *fs,
		FreeSegs:  fs.freeSegs,
		LiveCount: fs.liveCount,
		SegType:   fs.segType,
		Owner:     fs.owner,
		FreeInos:  fs.freeInos,
		Inodes:    make([]logInode, len(fs.inodes)),
		Files:     map[string]int32{},
		Dirs:      map[string]int32{},
		Dirty:     []int32{},
	}
	sc := &st.Scalars
	sc.disk, sc.freeSegs, sc.liveCount, sc.segType, sc.owner, sc.freeInos = nil, nil, nil, nil, nil, nil
	sc.inodes, sc.files, sc.dirNodes, sc.dirty = nil, nil, nil, nil
	for i, ino := range fs.inodes {
		if ino != nil {
			st.Inodes[i] = *ino
			if len(ino.blocks) == 0 {
				st.Inodes[i].blocks = nil
			}
		}
	}
	for n, ino := range fs.files {
		st.Files[n] = ino.idx
	}
	for n, ino := range fs.dirNodes {
		st.Dirs[n] = ino.idx
	}
	for _, ino := range fs.dirty {
		st.Dirty = append(st.Dirty, ino.idx)
	}
	return st
}

// extState is an ExtFS's whole in-memory state in comparable form.
type extState struct {
	Scalars   ExtFS // every field but the disk, slices and maps
	Bitmap    []bool
	Files     map[string]extInode
	DirBlocks map[string]int64
}

func extStateOf(fs *ExtFS) extState {
	st := extState{Scalars: *fs, Bitmap: fs.bitmap, Files: map[string]extInode{}, DirBlocks: fs.dirBlocks}
	st.Scalars.disk, st.Scalars.bitmap, st.Scalars.files, st.Scalars.dirBlocks = nil, nil, nil, nil
	for n, ino := range fs.files {
		c := *ino
		if len(c.extents) == 0 {
			c.extents = nil
		}
		st.Files[n] = c
	}
	return st
}

func fsStateOf(fs FS) any {
	switch fs := fs.(type) {
	case *LogFS:
		return logStateOf(fs)
	case *ExtFS:
		return extStateOf(fs)
	}
	panic("fsim: unknown file system")
}

// TestFSImageRoundTrip checks that an image keeps everything its
// materializations need: for both file systems and every ageing profile, a
// materialized file system equals its source in every field — the tables
// Materialize rebuilds (LogFS's owner table, live counts and name-to-slot
// maps; ExtFS's bitmap and file map) and those it copies (freeCount, the
// cursors, the inodes) — and after traffic through one clone, a second
// clone of the same image still equals the source.
func TestFSImageRoundTrip(t *testing.T) {
	const diskCap = 256 << 20
	for _, kind := range []string{"extfs", "logfs"} {
		for _, prof := range []AgingProfile{AgeU, AgeA, AgeM} {
			t.Run(kind+"-"+prof.String(), func(t *testing.T) {
				var fs FS
				var snap func() FSImage
				switch kind {
				case "extfs":
					e := NewExtFS(&MemDisk{Cap: diskCap})
					fs, snap = e, e.Snapshot
				case "logfs":
					l := NewLogFS(&MemDisk{Cap: diskCap})
					fs, snap = l, l.Snapshot
				}
				Age(fs, prof, 7)
				want := fsStateOf(fs)
				img := snap()

				d1 := &MemDisk{Cap: diskCap}
				c1 := img.Materialize(d1)
				if got := fsStateOf(c1); !reflect.DeepEqual(got, want) {
					t.Fatalf("materialized state differs from the source in %s", stateDiff(got, want))
				}
				driveAfterClone(t, c1, d1)
				if got := fsStateOf(c1); reflect.DeepEqual(got, want) {
					t.Fatal("traffic through the clone left its state unchanged")
				}
				c2 := img.Materialize(&MemDisk{Cap: diskCap})
				if got := fsStateOf(c2); !reflect.DeepEqual(got, want) {
					t.Fatalf("after traffic through the first clone, a second differs from the source in %s", stateDiff(got, want))
				}
				if got := fsStateOf(fs); !reflect.DeepEqual(got, want) {
					t.Fatalf("clones changed the source's %s", stateDiff(got, want))
				}
			})
		}
	}
}

// stateDiff names the fields in which two states differ.
func stateDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			out = append(out, g.Type().Field(i).Name)
		}
	}
	return strings.Join(out, ", ")
}
