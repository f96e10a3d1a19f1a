#!/usr/bin/env bash
# outputs.sh — write every byte-pinned output of the simulator into one
# directory, with a sha256sum manifest, so two builds can be compared file
# by file (make outputs-diff REV=<rev> does exactly that).
#
# It builds cmd/reproduce, cmd/ssdfio, cmd/jtagprobe and
# examples/compression-study from SRC (default: this checkout) and writes:
#   reproduce.pN.stdout, reproduce.pN.trace.jsonl, reproduce.pN.perfetto.json,
#   reproduce.pN.metrics, reproduce.pN.telemetry.jsonl,
#   reproduce.pN.timeline.csv, reproduce.pN.csv/*
#       cmd/reproduce -run all (Quick scale, seed 42) at -parallel N,
#       for N = 1 and 8
#   ssdfio.stdout, ssdfio.trace.jsonl, ssdfio.telemetry.jsonl,
#   ssdfio.timeline.csv, ssdfio.metrics
#       cmd/ssdfio -fleet 16 -prefill -pattern hotspot -read 0.3
#       -placement hash
#   ssdfio.dev.stdout, ssdfio.dev.trace.jsonl, ssdfio.dev.perfetto.json,
#   ssdfio.dev.metrics, ssdfio.dev.telemetry.jsonl, ssdfio.dev.timeline.csv
#       cmd/ssdfio -model MX500 -prefill -pattern uniform -qd 4 -ms 100
#       (single-device mode, every export)
#   jtagprobe.stdout, jtagprobe.pc.stdout
#       cmd/jtagprobe (the Fig. 6 exploration, ending with the TCK edge
#       count) and cmd/jtagprobe -pc
#   compression-study.stdout
#       examples/compression-study (Fig. 2's scheme table)
#   MANIFEST
#       sha256sum of every file above
# Progress and wall-clock timings go to stderr and are not recorded.
#
# Usage: scripts/outputs.sh DIR [SRC]
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 DIR [SRC]" >&2
	exit 2
fi
mkdir -p "$1"
dir=$(cd "$1" && pwd)
src=$(cd "${2:-$(dirname "$0")/..}" && pwd)

bin="$dir/bin"
mkdir -p "$bin"
echo ">> building $src" >&2
go -C "$src" build -o "$bin/reproduce" ./cmd/reproduce
go -C "$src" build -o "$bin/ssdfio" ./cmd/ssdfio
go -C "$src" build -o "$bin/jtagprobe" ./cmd/jtagprobe
go -C "$src" build -o "$bin/compression-study" ./examples/compression-study

# Paths are relative to out/, so outputs that name their files (the -csv
# notes on stdout) do not depend on where DIR is.
out="$dir/out"
rm -rf "$out"
mkdir -p "$out"
cd "$out"

for p in 1 8; do
	r="reproduce.p$p"
	mkdir -p "$r.csv"
	echo ">> cmd/reproduce -run all -parallel $p" >&2
	"$bin/reproduce" -run all -seed 42 -parallel "$p" -quiet \
		-trace "$r.trace.jsonl" \
		-trace-perfetto "$r.perfetto.json" \
		-metrics "$r.metrics" \
		-telemetry "$r.telemetry.jsonl" \
		-timeline "$r.timeline.csv" \
		-csv "$r.csv" >"$r.stdout"
done

echo ">> cmd/ssdfio -fleet 16" >&2
"$bin/ssdfio" -fleet 16 -prefill -pattern hotspot -read 0.3 -placement hash \
	-trace ssdfio.trace.jsonl \
	-telemetry ssdfio.telemetry.jsonl \
	-timeline ssdfio.timeline.csv \
	-metrics ssdfio.metrics >ssdfio.stdout

echo ">> cmd/ssdfio -model MX500" >&2
"$bin/ssdfio" -model MX500 -prefill -pattern uniform -qd 4 -ms 100 \
	-trace ssdfio.dev.trace.jsonl \
	-trace-perfetto ssdfio.dev.perfetto.json \
	-metrics ssdfio.dev.metrics \
	-telemetry ssdfio.dev.telemetry.jsonl \
	-timeline ssdfio.dev.timeline.csv >ssdfio.dev.stdout

echo ">> cmd/jtagprobe, examples/compression-study" >&2
"$bin/jtagprobe" >jtagprobe.stdout
"$bin/jtagprobe" -pc >jtagprobe.pc.stdout
"$bin/compression-study" >compression-study.stdout

find . -type f ! -name MANIFEST | LC_ALL=C sort | xargs sha256sum >MANIFEST
echo ">> wrote $out/MANIFEST" >&2
