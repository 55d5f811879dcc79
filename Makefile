# Convenience targets for the CrowdLearn reproduction.

GO ?= go

.PHONY: all build vet lint test bench-harness race race-equivalence crash-recovery chaos bench bench-json bench-gate load-json load-gate cover-obs faults fuzz artefacts report clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The static-analysis gate: formatting, go vet, and crowdlint — the
# custom stdlib-only rule suite (internal/lint) that enforces the
# repo's determinism, durability and concurrency invariants
# (DESIGN.md §11). Fails on any unformatted file, vet finding, or
# crowdlint diagnostic.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/crowdlint -baseline lint-baseline.json ./...
	$(GO) run ./cmd/crowdlint -tests -rules goroutine-ownership ./...

# -shuffle=on randomises test execution order to flush out inter-test
# state dependence.
test:
	$(GO) test -shuffle=on ./...

# The benchmark harness (_crowdbench) is a separate module that builds
# the main module from this checkout; neither `go build ./...` nor
# `make test` compiles it. Vet and test it so an API change the harness
# depends on fails here rather than in a benchmark run.
bench-harness:
	cd _crowdbench && $(GO) vet . && $(GO) test .

# The experiments package runs full campaigns and needs well over the
# 10m default package timeout under the race detector.
race:
	$(GO) test -race -timeout 45m ./...

# Coverage for the observability package (metrics registry + tracer).
cover-obs:
	$(GO) test -cover ./internal/obs/

# Smoke-run the fault-injection experiment: reduced scenario grid, both
# recovery arms, budget-conservation audit.
faults:
	$(GO) test -run TestFaultsSmoke -v -count=1 ./internal/experiments/

# Short fuzzing session over the HTTP request-decoding surface and the
# durable-store file parsers.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseContext -fuzztime 30s ./internal/service/
	$(GO) test -run xxx -fuzz FuzzAssessDecode -fuzztime 30s ./internal/service/
	$(GO) test -run xxx -fuzz FuzzOpenCheckpoint -fuzztime 30s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzWALScan -fuzztime 30s ./internal/store/

# The crash-safety equivalence suite under the race detector: kill-and-
# recover arms must end byte-identical to an uninterrupted arm, through
# checkpoint+WAL, WAL-only and all-checkpoints-torn recoveries
# (DESIGN.md §10).
crash-recovery:
	$(GO) test -race -timeout 30m -run 'CrashRecovery|TestRecover' ./internal/store/ ./internal/core/

# The chaos suite under the race detector: the full seeded kill-point
# catalog (internal/chaos, also runnable interactively via
# cmd/crowdchaos) asserting byte-identical post-restart state, zero
# cross-campaign contamination, bounded restart counts and observable
# breaker/quarantine transitions (DESIGN.md §13). The verbose log is
# kept at artefacts/chaos.log for CI artifact upload.
chaos:
	@mkdir -p artefacts
	@{ $(GO) test -race -count=1 -timeout 30m -v ./internal/chaos/ 2>&1; echo $$? > artefacts/.chaos-status; } | tee artefacts/chaos.log; \
	exit $$(cat artefacts/.chaos-status)

# The deterministic-parallelism equivalence suite under the race
# detector: bit-identical outputs at every worker count plus the
# concurrent-access regressions (DESIGN.md §9).
race-equivalence:
	$(GO) test -race -timeout 30m -run 'BitIdentical|Concurrent' ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The tracked benchmark set: the workers=1/2/4 sensing cycle (with
# per-stage wall/busy/idle/utilization extras from the stage profiler),
# the Table II regeneration, the allocation-free scoring-path
# benchmarks, one MIC retraining pass per committee expert (the
# dense-layer training kernels, DESIGN.md §9), the cold-start bootstrap
# training (three expert fits and CQC in one fan-out) and CQC's GBDT
# training on its own (the pinned split-search sort). Iteration counts are
# pinned (-benchtime Nx): RunCycle's per-op cost depends on b.N (MIC
# retrains accumulate training data across iterations), so adaptive
# benchtime makes ns/op and allocs/op incomparable between runs and the
# regression gate meaningless. Every benchmark runs at GOMAXPROCS 1 and
# 2 (-cpu 1,2); benchjson pairs and groups results per GOMAXPROCS.
BENCH_CMD = ( $(GO) test -bench 'BenchmarkTable2Accuracy' -benchtime 1x -cpu 1,2 -benchmem -run xxx -timeout 60m . ; \
	  $(GO) test -bench 'BenchmarkRunCycleParallel' -benchtime 300x -cpu 1,2 -benchmem -run xxx -timeout 60m . ; \
	  $(GO) test -bench 'BenchmarkRunCyclePipelined' -benchtime 150x -cpu 1,2 -benchmem -run xxx -timeout 60m . ; \
	  $(GO) test -bench 'BenchmarkCommitteeVote$$|BenchmarkCommitteeEntropy$$' -benchtime 100000x -cpu 1,2 -benchmem -run xxx ./internal/qss/ ; \
	  $(GO) test -bench 'BenchmarkExpertRetrain' -benchtime 100x -cpu 1,2 -benchmem -run xxx ./internal/classifier/ ; \
	  $(GO) test -bench 'BenchmarkBootstrap$$' -benchtime 10x -cpu 1,2 -benchmem -run xxx ./internal/core/ ; \
	  $(GO) test -bench 'BenchmarkTrain$$' -benchtime 10x -cpu 1,2 -benchmem -run xxx ./internal/cqc/ )

# Machine-readable parallel-scaling trajectory: reruns the tracked
# benchmark set and appends to the committed BENCH_parallel.json —
# the previous record moves into the document's history, so the file
# carries the performance trajectory across PRs. Speedups in the file
# scale with the core count of the recording machine.
bench-json:
	$(BENCH_CMD) | $(GO) run ./cmd/benchjson -o BENCH_parallel.json
	@cat BENCH_parallel.json

# The CI regression gate (DESIGN.md §12): rerun the tracked benchmark
# set, compare each result against the committed BENCH_parallel.json
# baseline at the same GOMAXPROCS, fail on >20% ns/op or >10% allocs/op
# regression, and leave the fresh record at artefacts/bench-latest.json
# for artifact upload either way. The -min-speedup floor additionally
# requires workers=4 RunCycle to beat workers=1 at the run's largest
# GOMAXPROCS; benchjson skips it with a printed notice when the run
# executed at GOMAXPROCS=1 only (a single-core run cannot demonstrate
# parallel speedup — the grain policy collapses the fan-out inline
# there).
bench-gate:
	@mkdir -p artefacts
	$(BENCH_CMD) | $(GO) run ./cmd/benchjson -gate BENCH_parallel.json -o artefacts/bench-latest.json \
		-min-speedup 'BenchmarkRunCycleParallel:4:1.0'

# Machine-readable overload trajectory: twice — once behind the
# production admission ladder, once with a plain unbounded queue — bring
# up the crowdlearnd -state-dir stack (core.CrowdLearn, the campaign
# worker, WAL fsync per cycle), measure its saturation, then drive
# 10-image /assess batches through an open-loop arrival ramp scaled by
# it, and append both arms to the committed BENCH_service.json (previous
# record moves into the document's history, so the file carries the
# overload-robustness trajectory across changes). Takes about 25 s.
load-json:
	$(GO) run ./cmd/crowdload -o BENCH_service.json
	@cat BENCH_service.json

# The CI overload gate (DESIGN.md §14): re-measure both arms on the real
# stack, require the admission arm's goodput at 2x saturation to hold
# within 20% of its peak and the baseline arm's to fall below 50% of
# its peak (that contrast is what proves the ladder is doing the work),
# and check the committed BENCH_service.json claims the same for its
# admission arm. Goodput counts answers within 15x the measured service
# time. The fresh record lands at artefacts/load-latest.json for
# artifact upload either way.
load-gate:
	@mkdir -p artefacts
	$(GO) run ./cmd/crowdload -gate BENCH_service.json -o artefacts/load-latest.json

# Regenerate every paper table/figure plus ablations into ./artefacts.
artefacts:
	$(GO) run ./cmd/crowdlearn -out artefacts all

# Regenerate the paper-vs-measured markdown report.
report:
	$(GO) run ./cmd/crowdlearn report | sed -n '/# CrowdLearn/,/^Deterministic/p' > REPORT.md

clean:
	rm -rf artefacts
