package fleet

import (
	"math/rand"
	"testing"
)

// refPlace is the per-extent reference placement: it walks the volume's
// extents in order, striping them over the group and giving each the next
// stripe at its drive's cursor, and returns every extent's drive and local
// byte with the cursors it leaves.
func refPlace(cursor []int64, group []int, extents, stripe int64) (drive []int32, base []int64) {
	k := int64(len(group))
	for e := int64(0); e < extents; e++ {
		di := group[e%k]
		drive = append(drive, int32(di))
		base = append(base, cursor[di])
		cursor[di] += stripe
	}
	return drive, base
}

// TestPlacementMatchesCursorWalk checks AddVolume's closed-form placement
// against refPlace: random groups over a few drives, with repeated drives,
// volumes shorter than their group and several volumes per fleet, so later
// volumes start from non-zero cursors. Every extent's drive and local byte,
// the cursors each volume leaves and the flush fan-out list must match.
func TestPlacementMatchesCursorWalk(t *testing.T) {
	const stripe = 256 * 1024
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		drives := 1 + rng.Intn(4)
		f := testFleet(t, drives, stripe)
		cursor := make([]int64, drives)
		for vol := 0; vol < 4; vol++ {
			group := make([]int, 1+rng.Intn(6))
			for j := range group {
				group[j] = rng.Intn(drives)
			}
			extents := 1 + rng.Int63n(int64(2*len(group)+3))
			v, err := f.AddVolume("v", group, extents*stripe)
			if err != nil {
				t.Fatalf("trial %d volume %d group %v: %v", trial, vol, group, err)
			}
			wantDrive, wantBase := refPlace(cursor, group, extents, stripe)
			for e := range wantDrive {
				di, local, n := v.piece(int64(e)*stripe+4096, stripe)
				if di != wantDrive[e] || local != wantBase[e]+4096 || n != stripe-4096 {
					t.Fatalf("trial %d volume %d group %v extent %d: drive %d at %d (+%d), want drive %d at %d",
						trial, vol, group, e, di, local, n, wantDrive[e], wantBase[e]+4096)
				}
			}
			var wantShared []int
			for di := range cursor {
				if f.drives[di].cursor != cursor[di] {
					t.Fatalf("trial %d volume %d group %v: drive %d cursor %d, want %d",
						trial, vol, group, di, f.drives[di].cursor, cursor[di])
				}
				for _, w := range wantDrive {
					if int(w) == di {
						wantShared = append(wantShared, di)
						break
					}
				}
			}
			if len(v.shared) != len(wantShared) {
				t.Fatalf("trial %d volume %d group %v: flush drives %v, want %v", trial, vol, group, v.shared, wantShared)
			}
			for i := range wantShared {
				if v.shared[i] != wantShared[i] {
					t.Fatalf("trial %d volume %d group %v: flush drives %v, want %v", trial, vol, group, v.shared, wantShared)
				}
			}
		}
	}
}
