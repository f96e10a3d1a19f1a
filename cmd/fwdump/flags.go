package main

import (
	"fmt"

	"ssdtp/internal/firmware"
)

// checkMinLen rejects a -minlen below the shortest run ExtractStrings
// reports, which it would otherwise raise silently while the header printed
// the value given.
func checkMinLen(n int) error {
	if n < firmware.MinStringLen {
		return fmt.Errorf("minimum string length %d must be at least %d", n, firmware.MinStringLen)
	}
	return nil
}
