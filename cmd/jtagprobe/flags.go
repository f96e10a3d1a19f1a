package main

import "fmt"

// checkDump rejects a -count that reads no words, or one that runs the dump
// from addr past the end of the 32-bit address space.
func checkDump(addr uint64, count int) error {
	if count < 1 {
		return fmt.Errorf("word count %d must be at least 1", count)
	}
	if room := (1<<32 - addr) / 4; uint64(count) > room {
		return fmt.Errorf("%d words from %#x run past the 32-bit address space (at most %d fit)", count, addr, room)
	}
	return nil
}
