package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark reports host time as calibrated seconds: each timed stretch
// is divided by the time a fixed reference kernel took right around it, and
// scaled by calSeconds. On a shared host, contention from outside the VM
// slows whole stretches of a run, often longer than the run itself, by up to
// 1.8x, and no statistic over one run's reps can remove that. The kernel is
// slowed in step: over 100 s of drive-gc-write on a 2-vCPU VM, 20 s windows'
// median rep times moved by 60% while their median ratios to the bracketing
// kernels moved by 3%.
//
// The kernel is what the simulator does, in miniature: a discrete-event loop
// over a binary heap, each event hashing into a map and updating a random
// word of a 16 MiB table. It lives in the benchmark, so a change to the
// simulator changes the reported times and leaves the kernel's alone. It
// allocates nothing, and its table is mapped outside the Go heap, so it moves
// neither heap_live_mb nor alloc_b_per_req.

const (
	// kernelEvents is the events one kernel run fires.
	kernelEvents = 500_000
	// kernelTableWords is the length of the kernel's table, in 4-byte words.
	kernelTableWords = 1 << 22
	// calSeconds is about the kernel's time on an uncontended 2-vCPU Xeon
	// VM, so calibrated seconds read like host seconds on that machine.
	calSeconds = 0.05
)

type kernelEvent struct {
	at  int64
	key uint32
}

// kernel is the reference kernel's state, built once.
var kernel struct {
	table []uint32
	heap  []kernelEvent
	seen  map[uint32]uint32
}

// initKernel maps the kernel's table and sizes its heap and map, so that
// kernel runs allocate nothing.
func initKernel() error {
	mem, err := syscall.Mmap(-1, 0, kernelTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the calibration kernel's table: %w", err)
	}
	kernel.table = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), kernelTableWords)
	kernel.heap = make([]kernelEvent, 0, 64)
	kernel.seen = make(map[uint32]uint32, 4096)
	runKernel() // fault the table in and fill the map
	return nil
}

// kernelTime runs the reference kernel once and returns its host seconds.
func kernelTime() float64 {
	t0 := time.Now()
	runKernel()
	return time.Since(t0).Seconds()
}

// runKernel fires kernelEvents events: each pops the earliest event, touches
// the table and the map at a pseudo-random key, and schedules a successor a
// pseudo-random delay later, keeping 32 events pending.
func runKernel() {
	h := kernel.heap[:0]
	push := func(e kernelEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() kernelEvent {
		e := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].at < h[c].at {
				c++
			}
			if h[i].at <= h[c].at {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return e
	}
	for i := 0; i < 32; i++ {
		push(kernelEvent{at: int64(i), key: uint32(i)})
	}
	x := uint64(88172645463325252)
	for i := 0; i < kernelEvents; i++ {
		e := pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := uint32(x % kernelTableWords)
		kernel.table[k] += e.key
		if i%8 == 0 {
			kernel.seen[k&4095]++
		}
		push(kernelEvent{at: e.at + int64(x%1000), key: k})
	}
	kernel.heap = h
}

// calibrated converts host seconds t, measured while the kernel took cal
// seconds, to calibrated seconds.
func calibrated(t, cal float64) float64 { return ratio(t*calSeconds, cal) }
