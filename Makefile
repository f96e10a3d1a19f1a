GO ?= go

.PHONY: all test vet bench bench-diff profile determinism outputs-diff reproduce reproduce-full cover clean

all: test vet

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

bench:
	scripts/bench.sh BENCH_10.json

# Gate the scheduler/stats hot paths against the previous committed baseline.
bench-diff:
	$(GO) run ./cmd/benchdiff -filter 'BenchmarkEngine|BenchmarkRecorder' BENCH_9.json BENCH_10.json

# CPU and allocation profiles of the Fig1 aging benchmark — where the
# request path spends its time and what still allocates. Open with
# `go tool pprof cpu.pprof` / `go tool pprof -sample_index=alloc_objects mem.pprof`.
profile:
	$(GO) test . -run '^$$' -bench BenchmarkFig1Aging -benchtime 1x \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof"

# The parallel-engine determinism suite at several scheduler widths: the
# sharded fleet pump and the cell pool must be byte-identical to serial under
# a single OS thread, a narrow one, and a wide one, and the shard group must
# match its reference scheduler and scan oracle.
determinism:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test ./internal/experiments/ ./internal/fleet/ \
			-run 'TestShardByteIdenticalAcrossWorkers|TestParallelOutputByteIdentical|TestTraceByteIdenticalAcrossWorkers|TestTelemetryByteIdenticalAcrossWorkers|TestFig3CellExportsPinned|TestTimelineCSVMatchesTelemetryJSONL|TestParallel' \
			-count=1 || exit 1; \
		GOMAXPROCS=$$p $(GO) test ./internal/sim/ -run 'TestShardGroup' -count=1 || exit 1; \
	done

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

reproduce:
	$(GO) run ./cmd/reproduce

reproduce-full:
	$(GO) run ./cmd/reproduce -full

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
