package ssd

import (
	"fmt"
	"strings"

	"ssdtp/internal/ftl"
	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// Model presets. Capacities are scaled (~250x smaller than the physical
// drives) so experiments complete quickly; over-provisioning ratios, cache
// proportions, channel shapes and counter semantics match the modeled drive.
// Every experiment reports ratios, which scaling preserves.

// MX500 models the Crucial MX500 of §2.2: TLC flash on 4 channels, dual-die
// dual-plane packages, RAIN 15+1 parity, a coalescing write-back data cache,
// and S.M.A.R.T. NAND-page counters that tick once per 32 KB dual-plane
// program pair — the unit Figure 4a infers as "about 30 KB" of host data.
func MX500() Config {
	return Config{
		Name:            "MX500",
		Channels:        4,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 32, PagesPerBlock: 128,
			PageSize: 16384, OOBSize: 1024,
		},
		Timing: nand.ONFI3TLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.08,
			GC:            ftl.GCGreedy,
			Cache:         ftl.CacheData,
			CacheBytes:    8 << 20,
			Alloc:         ftl.AllocCWDP,
			RAIN:          ftl.RAINConfig{DataPages: 15},
			ECCBits:       72,
			RefreshBits:   55,
		},
		CounterUnitBytes: 32768,
		HostOverhead:     8 * sim.Microsecond,
		ChipID: nand.ChipID{
			ManufacturerCode: 0x2C, DeviceCode: 0xA4,
			Manufacturer: "MICRON", Model: "MT29F256G08",
		},
		Reliability: nand.TLCReliability(),
	}
}

// EVO840 models the Samsung 840 EVO of §3.2 with the internals the JTAG
// study recovered: eight channels whose requests split across two FTL cores
// by the LBA's least-significant bit, no DRAM data caching (the RAM holds
// the mapping), and a TurboWrite pseudo-SLC buffer.
func EVO840() Config {
	return Config{
		Name:            "EVO840",
		Channels:        8,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 128,
			PageSize: 16384, OOBSize: 1024,
		},
		Timing: nand.ONFI3TLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.09,
			GC:            ftl.GCGreedy,
			Cache:         ftl.CacheMapping,
			CacheBytes:    1 << 20,
			Alloc:         ftl.AllocCWDP,
			PSLCBytes:     12 << 20,
			IdleGC:        true,
			ECCBits:       72,
			RefreshBits:   55,
		},
		HostOverhead: 10 * sim.Microsecond,
		ChipID: nand.ChipID{
			ManufacturerCode: 0xEC, DeviceCode: 0xDE,
			Manufacturer: "SAMSUNG", Model: "K9CHGY8S5C",
		},
		Reliability: nand.TLCReliability(),
	}
}

// Vertex2 models the OCZ Vertex II of §3.1 — the hardware-probe target: an
// older MLC SATA drive on ONFI 2.x timing with small pages.
func Vertex2() Config {
	return Config{
		Name:            "Vertex2",
		Channels:        4,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 32, PagesPerBlock: 64,
			PageSize: 4096, OOBSize: 128,
		},
		Timing: nand.ONFI2MLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.13, // 55 GB visible on 64 GB of flash
			GC:            ftl.GCGreedy,
			Cache:         ftl.CacheData,
			CacheBytes:    2 << 20,
			Alloc:         ftl.AllocCWDP,
		},
		HostOverhead: 15 * sim.Microsecond,
		ChipID: nand.ChipID{
			ManufacturerCode: 0x2C, DeviceCode: 0x68,
			Manufacturer: "MICRON", Model: "MT29F32G08",
		},
		// SATA-era MLC: gentler retention drift than TLC.
		Reliability: nand.Reliability{BaseBits: 1, WearBitsPerKiloErase: 8, RetentionBitsPerHour: 2},
	}
}

// S64 and S120 model the two unnamed consumer drives of Figure 1 (64 GB and
// 120 GB). They differ the way real drive generations do: S64 is a
// DRAM-less budget drive (its RAM holds mappings; data writes pass through
// a small volatile FIFO straight to flash) with weak allocation
// parallelism; S120 has more over-provisioning, a real write-back data
// cache, and channel-first striping. The Figure 1 result — that the
// F2FS/EXT4 ratio varies per device and aging — emerges from these
// personality differences: sequentializing writes pays enormously on S64
// and barely at all on S120, while log cleaning taxes aged state on both.

// S64 returns the 64 GB-class model.
func S64() Config {
	return Config{
		Name:            "S64",
		Channels:        2,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 32, PagesPerBlock: 64,
			PageSize: 8192, OOBSize: 448,
		},
		Timing: nand.ONFI3TLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.07,
			GC:            ftl.GCGreedy,
			Cache:         ftl.CacheMapping,
			CacheBytes:    1 << 20,
			Alloc:         ftl.AllocPDWC,
		},
		HostOverhead: 12 * sim.Microsecond,
	}
}

// S120 returns the 120 GB-class model.
func S120() Config {
	return Config{
		Name:            "S120",
		Channels:        4,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 24, PagesPerBlock: 64,
			PageSize: 8192, OOBSize: 448,
		},
		Timing: nand.ONFI3TLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.12,
			GC:            ftl.GCRandGreedy,
			GCSample:      8,
			Cache:         ftl.CacheData,
			CacheBytes:    4 << 20,
			Alloc:         ftl.AllocCWDP,
		},
		HostOverhead: 10 * sim.Microsecond,
	}
}

// MQSimBase is the baseline configuration of the §2.1 fidelity experiment:
// greedy GC, data-designated cache, CWDP allocation. The experiment varies
// one knob at a time against this baseline.
func MQSimBase() Config {
	return Config{
		Name:            "mqsim-base",
		Channels:        4,
		ChipsPerChannel: 1,
		Geometry: nand.Geometry{
			Dies: 2, Planes: 2, BlocksPerPlane: 24, PagesPerBlock: 64,
			PageSize: 16384, OOBSize: 1024,
		},
		Timing: nand.ONFI3TLC(),
		FTL: ftl.Config{
			SectorSize:    4096,
			OverProvision: 0.10,
			GC:            ftl.GCGreedy,
			Cache:         ftl.CacheData,
			CacheBytes:    2 << 20,
			Alloc:         ftl.AllocCWDP,
		},
		HostOverhead: 8 * sim.Microsecond,
	}
}

// models are the presets Model resolves by name, in ModelNames order.
var models = []func() Config{MX500, EVO840, Vertex2, S64, S120, MQSimBase}

// ModelNames lists the preset names Model accepts: each preset's
// Config.Name, the value of the command-line tools' -model flag.
func ModelNames() []string {
	names := make([]string, len(models))
	for i, mk := range models {
		names[i] = mk().Name
	}
	return names
}

// Model returns the preset whose Config.Name is name, or an error that
// lists the valid names.
func Model(name string) (Config, error) {
	for _, mk := range models {
		if cfg := mk(); cfg.Name == name {
			return cfg, nil
		}
	}
	return Config{}, fmt.Errorf("unknown model %q (want %s)", name, strings.Join(ModelNames(), "|"))
}
