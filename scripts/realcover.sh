#!/usr/bin/env bash
# realcover.sh — list the functions under internal/ that no real run enters.
#
# It builds every cmd/* with coverage instrumentation of the whole module,
# runs scripts/outputs.sh's command set (built the same way, through
# GOFLAGS), then cmd/teardown, cmd/sigtrace -workload format|seq|rand and
# cmd/fwdump at their default models, merges every run's counters with
# `go tool covdata`, and prints each non-test function under internal/ at
# 0.0 %. Tests do not run, so a listed function is reached, if at all, only
# from a test: evidence for a deletion, not a gate.
#
# Usage: scripts/realcover.sh DIR
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 DIR" >&2
	exit 2
fi
mkdir -p "$1"
dir=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)

export GOFLAGS="-cover -coverpkg=ssdtp/..."
export GOCOVERDIR="$dir/covdata"
rm -rf "$GOCOVERDIR"
mkdir -p "$GOCOVERDIR" "$dir/bin"

echo ">> building cmd/* with coverage" >&2
for c in "$root"/cmd/*/; do
	name=$(basename "$c")
	go -C "$root" build -o "$dir/bin/$name" "./cmd/$name"
done

"$root/scripts/outputs.sh" "$dir/outputs" "$root"

echo ">> cmd/teardown, cmd/sigtrace, cmd/fwdump" >&2
"$dir/bin/teardown" >/dev/null
for w in format seq rand; do
	"$dir/bin/sigtrace" -workload "$w" >/dev/null
done
"$dir/bin/fwdump" >/dev/null

go tool covdata textfmt -i="$GOCOVERDIR" -o "$dir/cover.out"
(cd "$root" && go tool cover -func="$dir/cover.out") |
	awk '$1 ~ /^ssdtp\/internal\// && $NF == "0.0%" { print; n++ }
		END { printf "%d functions under internal/ at 0.0%% in real runs\n", n }'
