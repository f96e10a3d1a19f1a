package main

import (
	"fmt"

	"ssdtp/internal/sigtrace"
)

// checkWidth rejects a -width narrower than RenderWaveform draws, which it
// would otherwise widen silently.
func checkWidth(width int) error {
	if width < sigtrace.MinWaveformWidth {
		return fmt.Errorf("waveform width %d must be at least %d columns", width, sigtrace.MinWaveformWidth)
	}
	return nil
}
