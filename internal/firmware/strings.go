package firmware

// MinStringLen is the shortest run ExtractStrings reports; a smaller minLen
// is raised to it.
const MinStringLen = 2

// ExtractStrings pulls printable ASCII runs of at least minLen bytes from a
// firmware image — the first thing anyone runs on a de-obfuscated blob
// (`strings firmware.bin`), and how the paper's authors oriented themselves
// in the 840 EVO image before disassembling.
func ExtractStrings(img []byte, minLen int) []string {
	if minLen < MinStringLen {
		minLen = MinStringLen
	}
	var out []string
	start := -1
	for i, b := range img {
		printable := b >= 0x20 && b < 0x7F
		if printable && start < 0 {
			start = i
		}
		if !printable && start >= 0 {
			if i-start >= minLen {
				out = append(out, string(img[start:i]))
			}
			start = -1
		}
	}
	if start >= 0 && len(img)-start >= minLen {
		out = append(out, string(img[start:]))
	}
	return out
}
