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
RACE_ENV_TESTS = TestShardedDelta|TestShardEnv|TestEnvCommitModes

# pdt.Map's value replacement frees a value readers of the same key may
# hold, in an array growth may be copying (DESIGN.md §14): both races have
# narrow windows, so their tests repeat.
RACE_MAP_TESTS = TestMapHotCacheConcurrentChurn|TestMapReplaceVsGrowthAndGet

.PHONY: check vet build test race bench-read bench-e2e-smoke bench-lockfree \
	microbench lint fmt-check structure-check staticcheck crashmc-smoke coverage

check: vet build test race

# Full static gate as CI runs it. staticcheck downloads the pinned tool on
# first use, so this target needs network access once per version.
lint: fmt-check structure-check vet staticcheck

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# One stack constructor, one capability descriptor, a current inventory:
# fails with file:line on a hand-assembled core.Open/fa.NewManager stack
# or a type assertion to a store capability interface, and names any
# directory under cmd/ or internal/ that DESIGN.md §3 does not.
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
	$(GO) test -race -run '$(RACE_ENV_TESTS)' ./internal/bench/
	$(GO) test -race -run '$(RACE_MAP_TESTS)' -count=20 ./internal/pdt/

# Allocation gate (DESIGN.md §14, §18): runs the MapGet/GridRead and
# ServerWindow benchmarks with -benchmem and fails if the zero-copy and
# proxy-cached fast paths report any allocs/op, the fallback regimes
# exceed their ceilings, or a wire request allocates per field again.
# CI runs this on every push.
bench-read:
	./scripts/check_allocs.sh

# Smoke of the repo's benchmark (BENCHMARK.json, benchmarks/): its unit
# tests plus every workload once in -quick shape, then one quick net-a
# through run.sh the way the benchmark driver invokes it. The benchmark
# is its own module, so `go test ./...` does not see it; this target is
# what fails when a refactor breaks one of the entry points pinned at
# the top of benchmarks/harness/stack.go. CI runs this on every push.
bench-e2e-smoke:
	cd benchmarks && $(GO) test ./...
	bash benchmarks/run.sh --workload net-a --quick

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

# Coverage over the library packages, gated on results/coverage_floor.txt.
coverage:
	$(GO) test -coverprofile=coverage.out ./internal/...
	./scripts/check_coverage.sh coverage.out
