GO ?= go

.PHONY: all test vet bench bench-diff profile determinism reproduce reproduce-full cover clean

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

reproduce:
	$(GO) run ./cmd/reproduce

reproduce-full:
	$(GO) run ./cmd/reproduce -full

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
