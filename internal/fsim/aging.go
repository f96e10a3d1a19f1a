package fsim

import (
	"fmt"
	"math/rand"
	"strconv"
)

// AgingProfile selects how a file system is aged before measurement,
// mirroring Figure 1's U (unaged), A and M conditions (two different aging
// processes in Kadekodi et al.'s Geriatrix runs).
type AgingProfile int

// Aging profiles.
const (
	// AgeU leaves the file system fresh.
	AgeU AgingProfile = iota
	// AgeA is small-file churn: fill with many 4–64 KB files, then many
	// create/delete rounds — maximal free-space fragmentation.
	AgeA
	// AgeM is mixed media aging: fewer, larger files (128 KB–2 MB) with
	// random partial overwrites, appends and deletions — moderate
	// fragmentation but heavy device-level overwrite history.
	AgeM
)

func (p AgingProfile) String() string {
	switch p {
	case AgeU:
		return "U"
	case AgeA:
		return "A"
	case AgeM:
		return "M"
	default:
		return "?"
	}
}

// AgingStats summarizes what aging did.
type AgingStats struct {
	Profile     AgingProfile
	Ops         int64
	FilesLeft   int
	Utilization float64
}

// Age runs the profile against fs until the target utilization is churned
// through `churn` rounds. Determinism comes from seed.
func Age(fs FS, profile AgingProfile, seed int64) AgingStats {
	rng := rand.New(rand.NewSource(seed + int64(profile)*1000))
	st := AgingStats{Profile: profile}
	switch profile {
	case AgeU:
		// Nothing.
	case AgeA:
		ageSmallChurn(fs, rng, &st)
	case AgeM:
		ageMixed(fs, rng, &st)
	}
	_ = fs.Sync()
	st.FilesLeft = len(fs.Files())
	if cap := fs.CapacityBytes(); cap > 0 {
		st.Utilization = float64(fs.UsedBytes()) / float64(cap)
	}
	return st
}

// fill creates files of size drawn by sizeFn until utilization reaches
// target; returns the created names.
func fill(fs FS, rng *rand.Rand, st *AgingStats, target float64, prefix string, sizeFn func() int64) []string {
	var names []string
	for i := 0; float64(fs.UsedBytes()) < target*float64(fs.CapacityBytes()); i++ {
		name := ageName(prefix, i)
		size := sizeFn()
		if err := fs.Create(name); err != nil {
			break
		}
		if err := fs.Write(name, 0, size); err != nil {
			_ = fs.Delete(name)
			break
		}
		names = append(names, name)
		st.Ops += 2
	}
	return names
}

// ageName is fill's name for its i-th file, fmt.Sprintf("age%02d/%s%06d",
// i%25, prefix, i), built without boxing the numbers.
func ageName(prefix string, i int) string {
	var buf [32]byte
	b := append(buf[:0], "age"...)
	b = appendPadded(b, i%25, 2)
	b = append(b, '/')
	b = append(b, prefix...)
	return string(appendPadded(b, i, 6))
}

// replName is ageMixed's name for the file replacing a deletion at churn
// step op, fmt.Sprintf("mr%06d", op).
func replName(op int) string {
	var buf [16]byte
	return string(appendPadded(append(buf[:0], "mr"...), op, 6))
}

// appendPadded appends the non-negative n in decimal, zero-padded to width
// digits, as %0*d does.
func appendPadded(b []byte, n, width int) []byte {
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// ageSmallChurn implements AgeA.
func ageSmallChurn(fs FS, rng *rand.Rand, st *AgingStats) {
	size := func() int64 { return int64(rng.Intn(15)+1) * 4096 }
	names := fill(fs, rng, st, 0.70, "a", size)
	// Churn: delete a random third, refill, repeat. Free space shatters.
	for round := 0; round < 6; round++ {
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		cut := len(names) / 3
		for _, n := range names[:cut] {
			if fs.Delete(n) == nil {
				st.Ops++
			}
		}
		names = names[cut:]
		names = append(names, fill(fs, rng, st, 0.70, fmt.Sprintf("a%d_", round), size)...)
	}
}

// ageMixed implements AgeM.
func ageMixed(fs FS, rng *rand.Rand, st *AgingStats) {
	size := func() int64 { return int64(rng.Intn(480)+32) * 4096 } // 128KB-2MB
	names := fill(fs, rng, st, 0.60, "m", size)
	// Overwrite and append churn with occasional deletion; deletions are
	// replaced so utilization stays near the target.
	churn := len(names) * 20
	for op := 0; op < churn && len(names) > 4; op++ {
		n := names[rng.Intn(len(names))]
		info, err := fs.Stat(n)
		if err != nil {
			continue
		}
		switch rng.Intn(10) {
		case 0:
			if fs.Delete(n) == nil {
				for i, x := range names {
					if x == n {
						names = append(names[:i], names[i+1:]...)
						break
					}
				}
				repl := replName(op)
				if fs.Create(repl) == nil {
					if fs.Write(repl, 0, size()) == nil {
						names = append(names, repl)
						st.Ops += 2
					} else {
						_ = fs.Delete(repl)
					}
				}
			}
		case 1, 2:
			_ = fs.Append(n, int64(rng.Intn(16)+1)*4096)
		default:
			if info.Size > 4096 {
				off := rng.Int63n(info.Size/4096) * 4096
				_ = fs.Write(n, off, int64(rng.Intn(8)+1)*4096)
			}
		}
		st.Ops++
	}
}
