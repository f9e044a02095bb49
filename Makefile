GO ?= go

# Pinned so local and CI runs agree; bump deliberately, not via @latest.
STATICCHECK_VERSION ?= 2024.1.1

# Packages with lock-free fast paths and shared mutable state; always get
# a race-detector pass in addition to the plain suite. Recovery is serial
# (DESIGN.md §12), so core, whose tests start no goroutines, is not here.
RACE_PKGS = ./internal/store/... ./internal/fa/... ./internal/heap/... ./internal/obs/... ./internal/pdt/... ./internal/stack/... ./internal/wire/...

# internal/bench is too slow to race wholesale; it gets the env test
# that runs the grid in every commit mode.
RACE_ENV_TESTS = TestEnvCommitModes

# pdt.Map's value replacement frees a value readers of the same key may
# hold, in an array growth may be copying (DESIGN.md §14), and a
# transactional writer must not copy an array block its predecessor has
# not committed yet (DESIGN.md §15): these races have narrow windows, so
# their tests repeat.
RACE_MAP_TESTS = TestMapCacheConcurrentChurn|TestMapReplaceVsGrowthAndGet|TestMapTxStructuralChurnConcurrent

.PHONY: check vet build test race bench-read bench-e2e-smoke \
	lint fmt-check structure-check staticcheck crashmc-smoke crashmc-mutants \
	coverage paper

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

# Allocation gate (DESIGN.md §14, §16): runs the MapGet/GridRead,
# ServerWindow and ClientWindow benchmarks with -benchmem and fails if the
# zero-copy and proxy-cached fast paths report any allocs/op, the fallback
# regimes exceed their ceilings, a wire request allocates per field again,
# or the wire client allocates per reply.
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

# Crash-consistency exploration of every point of every workload, as
# per-push CI runs it (the CI job adds -out for its report). The nightly
# job takes 8 samples per point and a rotating seed.
crashmc-smoke:
	$(GO) run ./cmd/crashmc -workload all -points 0 -samples 4 -seed 1

# Fence mutants (~3 min): each deletes one fence from a copy of HEAD and
# must make exactly its expected workloads fail. The nightly CI job runs
# it.
crashmc-mutants:
	GO=$(GO) ./scripts/crashmc_mutants.sh

# Every results/*.txt, regenerated through cmd/paper at default scale
# (about 5 min on a 2-core host): file:experiments. The command is built,
# not run with go run, so each file's header line names the commit.
PAPER_RESULTS = gcsweep:fig1,fig2 ycsb:fig7,fig8,fig9a,fig9b,fig9c,fig9d,fig10 \
	tpcb:fig11 datatypes:fig12 delsites:table1 blockbw:table3,frag ablation:ablation

paper:
	$(GO) build -o .paper_build/paper ./cmd/paper
	@set -e; for r in $(PAPER_RESULTS); do \
		echo "results/$${r%%:*}.txt: $${r#*:}"; \
		./.paper_build/paper -exp $${r#*:} > results/$${r%%:*}.txt; \
	done

# Coverage over the library packages, gated on results/coverage_floor.txt.
coverage:
	$(GO) test -coverprofile=coverage.out ./internal/...
	./scripts/check_coverage.sh coverage.out
