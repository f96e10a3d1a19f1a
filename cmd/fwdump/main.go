// Command fwdump de-obfuscates a firmware update file and prints what an
// analyst extracts first: version, embedded strings, and the memory-map
// table — the offline half of the §3.2 methodology. With no -in file it
// generates the simulated 840 EVO's update file and analyzes that.
//
// Usage:
//
//	fwdump [-in update.bin] [-strings] [-minlen 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/firmware"
)

func main() {
	in := flag.String("in", "", "obfuscated update file (default: generate the simulated 840 EVO's)")
	showStrings := flag.Bool("strings", true, "print extracted strings")
	minLen := flag.Int("minlen", 4, fmt.Sprintf("minimum string length (at least %d)", firmware.MinStringLen))
	flag.Parse()
	if err := checkMinLen(*minLen); err != nil {
		cliutil.Failf("minlen", "%v", err)
	}

	var blob []byte
	if *in != "" {
		var err error
		blob, err = os.ReadFile(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Println("(no -in file: generating the simulated 840 EVO update file)")
		blob = firmware.New(nil).UpdateFile()
	}

	img, err := firmware.Deobfuscate(blob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "de-obfuscation failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("de-obfuscated %d bytes, checksum OK\n", len(img))
	fmt.Printf("firmware version: %s\n", firmware.Version(img))

	regions, err := firmware.ParseRegions(img)
	if err != nil {
		fmt.Fprintf(os.Stderr, "no memory-map table: %v\n", err)
	} else {
		fmt.Printf("\nmemory map (%d regions):\n", len(regions))
		names := map[uint32]string{
			firmware.RegionROM: "ROM", firmware.RegionSRAM: "SRAM",
			firmware.RegionDRAM: "DRAM", firmware.RegionMapArray: "L2P array",
			firmware.RegionPSLCIndex: "pSLC hash index", firmware.RegionChunkBitmap: "chunk bitmap",
			firmware.RegionMMIO: "MMIO",
		}
		for _, r := range regions {
			fmt.Printf("  %08x..%08x  %-16s (%d KiB)\n",
				r.Base, r.Base+r.Size, names[r.Kind], r.Size>>10)
		}
	}

	if *showStrings {
		strs := firmware.ExtractStrings(img, *minLen)
		fmt.Printf("\nstrings (>= %d chars): %d found\n", *minLen, len(strs))
		for i, s := range strs {
			if i >= 20 {
				fmt.Printf("  ... %d more\n", len(strs)-20)
				break
			}
			fmt.Printf("  %q\n", s)
		}
	}
}
