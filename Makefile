GO ?= go

# Pinned so local and CI runs agree; bump deliberately, not via @latest.
STATICCHECK_VERSION ?= 2024.1.1

# Packages with lock-free fast paths and shared mutable state; always get
# a race-detector pass in addition to the plain suite. core and pdt joined
# when recovery went parallel (work-stealing traversal, segment sweep,
# concurrent mirror rebuild).
RACE_PKGS = ./internal/store/... ./internal/fa/... ./internal/heap/... ./internal/obs/... ./internal/core/... ./internal/pdt/... ./internal/shard/... ./internal/stack/... ./internal/wire/...

# internal/bench is too slow to race wholesale; its tests that run
# goroutines over a sharded env (the wire server on two connections) are.
RACE_BENCH_TESTS = TestShardedDelta|TestShardEnv|TestEnvCommitModes

.PHONY: check vet build test race bench bench-read bench-check bench-e2e-smoke \
	bench-recovery bench-recovery-ci bench-lockfree bench-shard microbench \
	lint fmt-check structure-check staticcheck crashmc-smoke coverage binaries \
	scenarios scenario-smoke

check: vet build test race

# Full static gate as CI runs it. staticcheck downloads the pinned tool on
# first use, so this target needs network access once per version.
lint: fmt-check structure-check vet staticcheck

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# One stack constructor, one capability descriptor: fails with file:line
# on a hand-assembled core.Open/fa.NewManager stack or a type assertion to
# a store capability interface.
structure-check:
	./scripts/check_structure.sh

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run '$(RACE_BENCH_TESTS)' ./internal/bench/

# Record the performance baseline: short YCSB-A/B and TPC-B passes with
# throughput and pwb/pfence-per-op columns. Perf PRs re-run this and diff
# results/BENCH_baseline.json against the committed copy.
bench:
	$(GO) run ./cmd/baseline -out results/BENCH_baseline.json

# Allocation gate (DESIGN.md §14, §18): runs the MapGet/GridRead and
# ServerWindow benchmarks with -benchmem and fails if the zero-copy and
# proxy-cached fast paths report any allocs/op, the fallback regimes
# exceed their ceilings, or a wire request allocates per field again.
# CI runs this on every push.
bench-read:
	./scripts/check_allocs.sh

# Full benchmark gate (DESIGN.md §15, §17): re-runs the baseline passes
# and fails if pwb/op, pfence/op or allocs/op regressed beyond tolerance
# vs the committed BENCH_baseline.json, if group commit stops combining
# fences at 8+ committers, if Kops/s fell on a row whose committed
# counterpart ran on a host with the same CPU count, or if the in-run
# sharding head-to-head or the recovery work counters moved. CI runs
# this on every push.
bench-check:
	./scripts/check_bench.sh

# Smoke of the repo's benchmark (BENCHMARK.json, benchmarks/): its unit
# tests plus every workload once in -quick shape, then one quick net-a
# through run.sh the way the benchmark driver invokes it. The benchmark
# is its own module, so `go test ./...` does not see it; this target is
# what fails when a refactor breaks one of the entry points pinned at
# the top of benchmarks/harness/stack.go. CI runs this on every push.
bench-e2e-smoke:
	cd benchmarks && $(GO) test ./...
	bash benchmarks/run.sh --workload net-a --quick

# Recovery-time scaling: load a large heap, crash it, re-open the image
# once per worker count. workers=1 is the paper's serial §4.1.3 procedure;
# speedups are relative to it (and bounded by the host's core count).
bench-recovery:
	$(GO) run ./cmd/recoverbench -out results/BENCH_recovery.json

# Regenerate the committed CI-sized recovery reference. check_bench.sh
# replays recoverbench with -check against this file: the deterministic
# work counters must reproduce exactly, so the parameters here and in the
# script must stay in lockstep.
bench-recovery-ci:
	$(GO) run ./cmd/recoverbench -entries 20000 -pool-mb 96 -workers 1,2 \
		-repeat 2 -out results/BENCH_recovery_ci.json

# Pool-count sweep (DESIGN.md §17): YCSB-A over the sharded heap at
# 1/4/8 pools. The gate requires the 4+-pool rows to beat single-pool on
# a multicore host, and bounds the routing tax at 20% otherwise.
bench-shard:
	$(GO) run ./cmd/shardbench -out results/BENCH_shard.json

# Lock-free J-PDT smoke (DESIGN.md §16): the EBR-pinned grid read must
# stay allocation-free next to the seqlock path, and the lock-free suites
# must hold under the race detector. CI runs this on every push; the
# pdtlockfree crash workload is explored by crashmc-smoke (-workload all).
bench-lockfree:
	$(GO) test -run '^$$' -bench 'GridRead/(zerocopy|lockfree)' -benchtime 100x -benchmem ./internal/bench/
	$(GO) test -race -run 'TestLF|TestMapHotCache|TestMirrorSkipAscend' ./internal/pdt/

microbench:
	$(GO) test -bench=. -benchmem .

# Bounded crash-consistency exploration (the CI gate). The nightly CI job
# runs the unbounded version: -points 0 -samples 8.
crashmc-smoke:
	$(GO) run ./cmd/crashmc -workload all -points 200 -samples 4 -seed 1

# Coverage over the library packages that have tests, gated on
# results/coverage_floor.txt. internal/results and internal/scenario have
# none (they are the report plumbing of the scenario fleet), so counting
# their statements measured the profile's scope, not the tests: 78-79%
# against the 81.5 floor with every tested package above it. Both leave
# with ROADMAP's "One measuring rig" item, and this filter with them.
COVER_PKGS = $(shell $(GO) list ./internal/... | grep -v -e /internal/results$$ -e /internal/scenario$$)

coverage:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	./scripts/check_coverage.sh coverage.out

# The networked-grid binaries (DESIGN.md §18): the TCP server, the
# load generator and the scenario runner.
binaries:
	mkdir -p bin
	$(GO) build -o bin/gridserver ./cmd/gridserver
	$(GO) build -o bin/loadgen ./cmd/loadgen
	$(GO) build -o bin/scenario ./cmd/scenario

# The full end-to-end scenario fleet: baseline, high-load, hot-key,
# degraded-latency, crash-recover and leaderboard (zipfian increments
# with delta folding vs whole-value updates, §19), each against a real
# gridserver process over TCP, emitting
# results/scenarios/scenario-<name>.json.
# The crash scenario SIGKILLs the server mid-load, restarts it, and
# fails if any acknowledged write is missing after recovery.
scenarios: binaries
	./bin/scenario -all -out results/scenarios

# The CI-sized smoke: a 15-second baseline plus crash-recover pair.
# Nightly CI runs the full fleet; this keeps every push honest about the
# server lifecycle (serve, drain, crash, recover) without the full cost.
scenario-smoke: binaries
	./bin/scenario -run baseline -duration 15s -out results/ci
	./bin/scenario -run crash-recover -duration 15s -out results/ci
