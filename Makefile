GO ?= go

.PHONY: all test vet profile determinism perf-pinned perf-diff outputs-diff realcover reproduce reproduce-full cover clean

all: test vet

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# CPU and allocation profiles of the Fig3 tail-latency benchmark — where the
# request path spends its time and what still allocates. Open with
# `go tool pprof cpu.pprof` / `go tool pprof -sample_index=alloc_objects mem.pprof`.
profile:
	$(GO) test . -run '^$$' -bench BenchmarkFig3TailLatency -benchtime 1x \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof"

# The determinism suite at several scheduler widths: the cell pool's output,
# the fleet cells' included, must be byte-identical to serial under a single
# OS thread, a narrow one, and a wide one, and the fleet pump's shard heap
# must match its reference scheduler and scan oracle.
determinism:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test ./internal/experiments/ \
			-run 'TestParallelOutputByteIdentical|TestTraceByteIdenticalAcrossWorkers|TestTelemetryByteIdenticalAcrossWorkers|TestFig3CellExportsPinned|TestTimelineCSVMatchesTelemetryJSONL|TestParallelHeadlinesMatchSerial|TestFleetObsByteIdenticalAcrossWorkers' \
			-count=1 || exit 1; \
		GOMAXPROCS=$$p $(GO) test ./internal/sim/ -run 'TestShardGroup' -count=1 || exit 1; \
	done

# Simulated behaviour against perfbench/pinned.json: one short run of each
# perfbench workload at seed 42 (about 40 s with a cold build). A fingerprint
# that differs from its pin fails that workload's warm-up rep, which
# perfbench reports as "correct":false with a non-zero "failed" count while
# still exiting 0, so the result lines are checked, not only the exit status.
# perfbench runs three workloads; a fourth needs this count raised.
perf-pinned:
	mkdir -p .perf
	bash perfbench/run.sh --workload all --seed 42 --seconds 1 --trace 0 > .perf/pinned.out || { cat .perf/pinned.out; exit 1; }
	@awk '{ print } /^== / { w = $$2 } /^\{/ { n++; if ($$0 !~ /"correct":true,/ || $$0 !~ /"failed":0,/) { print "perf-pinned: " w " is incorrect: its fingerprint differs from pinned.json or a rep failed (see stderr above)"; bad = 1 } } \
		END { if (n != 3) { print "perf-pinned: " n " result lines, want 3"; bad = 1 } if (!bad) print "perf-pinned: every workload matches pinned.json"; exit bad }' .perf/pinned.out

# Measured A/B against another revision: REV is exported with git archive,
# each tree builds perfbench into its own .bench_build, and five alternating
# pairs of runs of one perfbench workload at seed 42 (3 s of timed reps each,
# calibrated against perfbench's reference kernel) feed cmd/benchdiff, which
# fails when the median of any end-to-end metric is worse than REV's by more
# than its BENCHMARK.json bound, or when any run is incorrect. WORKLOAD picks
# the workload, drive-gc-write by default (what CI runs); a change aimed at
# the fleet pump is measured with WORKLOAD=fleet-256.
WORKLOAD ?= drive-gc-write
perf-diff:
	@test -n "$(REV)" || { echo "usage: make perf-diff REV=<rev> [WORKLOAD=<name>]" >&2; exit 2; }
	rm -rf .perf/rev-src .perf/rev.out .perf/head.out
	mkdir -p .perf/rev-src
	git archive "$(REV)" | tar -x -C .perf/rev-src
	for i in 1 2 3 4 5; do \
		(cd .perf/rev-src && bash perfbench/run.sh --workload $(WORKLOAD) --seed 42 --seconds 3 --trace 0) >> .perf/rev.out || exit 1; \
		bash perfbench/run.sh --workload $(WORKLOAD) --seed 42 --seconds 3 --trace 0 >> .perf/head.out || exit 1; \
	done
	$(GO) run ./cmd/benchdiff BENCHMARK.json .perf/rev.out .perf/head.out

# Byte-identity check against another revision: write every byte-pinned
# output (scripts/outputs.sh, cmd/reproduce at -parallel 1 and 8) for REV,
# exported with git archive, and for this checkout, diff the two manifests,
# then show the diff of each differing file. Exits non-zero when any output
# differs.
outputs-diff:
	@test -n "$(REV)" || { echo "usage: make outputs-diff REV=<rev>" >&2; exit 2; }
	rm -rf .outputs
	mkdir -p .outputs/rev-src
	git archive "$(REV)" | tar -x -C .outputs/rev-src
	scripts/outputs.sh .outputs/rev .outputs/rev-src
	scripts/outputs.sh .outputs/head
	@if diff .outputs/rev/out/MANIFEST .outputs/head/out/MANIFEST; then \
		echo "outputs byte-identical to $(REV)"; \
	else \
		for f in $$(diff .outputs/rev/out/MANIFEST .outputs/head/out/MANIFEST | awk '/^[<>]/ {print $$3}' | sort -u); do \
			echo "=== $$f"; \
			diff .outputs/rev/out/$$f .outputs/head/out/$$f | head -n 40; \
		done; \
		exit 1; \
	fi

# Functions under internal/ that no real run enters: every cmd/* built with
# coverage, run on scripts/outputs.sh's command set plus teardown, sigtrace
# and fwdump, and the 0.0 % functions listed (scripts/realcover.sh). Not a
# gate: it is evidence for deleting code that only tests reach.
realcover:
	scripts/realcover.sh .realcover

reproduce:
	$(GO) run ./cmd/reproduce

reproduce-full:
	$(GO) run ./cmd/reproduce -full

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
