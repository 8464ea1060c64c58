# Tier-1 verification in one command: `make ci`.
GO ?= go

# Benchmark baseline: `make bench` runs every benchmark suite and
# archives the results as JSON (override BENCHTIME/BENCHOUT to taste).
# BENCHTIME pins the root package's experiment benchmarks, each a whole
# figure, to a multi-iteration count — single-iteration records are
# anecdotes, and benchjson warns on them. The ./internal/...
# micro-benchmarks run for 300ms each instead: an operation of a few
# nanoseconds run 3 times measures the timer, not the operation.
# -count=1 is explicit so a user GOFLAGS can't multiply the archived run.
# BENCHCPU pins GOMAXPROCS for the experiment benchmarks: it is the
# harness's default worker count, so it sets how many machine pairs the
# parallel experiments (R1) build, and it is the -N suffix benchjson
# matches benchmark names on. BENCHOUT defaults to the next free
# BENCH_NNNN.json so a re-run never silently overwrites an archived
# baseline.
BENCHTIME ?= 3x
BENCHCPU  := 2
BENCHOUT  ?= $(shell n=$$(ls BENCH_[0-9][0-9][0-9][0-9].json 2>/dev/null \
	| sed -E 's/BENCH_0*([0-9]+)\.json/\1/' | sort -n | tail -1); \
	printf 'BENCH_%04d.json' $$(( $${n:--1} + 1 )))

# Regression gate: `make benchcmp` reruns the core experiment benchmarks
# (F1-F4) and the experiments that run outside the memo (R1, TIER, WIT)
# and compares them against the newest committed baseline, failing on
# memory regressions beyond the tolerance. Only B/op and allocs/op are
# gated — they are deterministic across machines, unlike wall-clock
# ns/op.
BENCHBASE ?= $(shell ls BENCH_[0-9][0-9][0-9][0-9].json 2>/dev/null | sort | tail -1)
BENCHCMP_TOLERANCE ?= 10

# Fuzz smoke: `make fuzz` runs each native fuzz target for FUZZTIME
# (CI uses 30s; local default 10s per target).
FUZZTIME ?= 10s

.PHONY: build test vet lint race fmt-check fma-check bench benchcmp fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static checks (internal/lint): mutex-guard discipline in
# the concurrent service layers, determinism in the simulation engine,
# counter registration in the protocol packages, and Reset discipline on
# pooled values. Third-party analyzers run when installed — CI installs
# pinned versions (see .github/workflows/ci.yml); local environments
# without them skip with a note instead of failing the target.
lint:
	$(GO) run ./internal/lint/cmd/arcsimvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping (CI runs it pinned)"; fi

# Race-enabled pass over the concurrent subset: the parallel experiment
# harness (worker pool + singleflight memo), the machine pool its
# workers share (and a daemon's workers share across seeds), the engine
# it drives (now phase-parallel), the trace/workload layers it fans
# goroutines over, the differential conformance checker, the daemon's
# service + store layers and the peer mesh federating them, the job-API
# client, and the cost-model scheduler that fans sweeps across daemons
# (core state machine, fleet driver, sim harness).
race:
	$(GO) test -race -short ./internal/bench/ ./internal/protocols/ ./internal/sim/ ./internal/conformance/ \
		./internal/server/ ./internal/store/ ./internal/mesh/ ./internal/client/ ./internal/static/ \
		./internal/trace/ ./internal/workload/ \
		./internal/sched/ ./internal/sched/fleet/ ./internal/sched/simtest/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Same result bytes on every architecture: arm64 fuses x*y+z into one
# rounding (FMADDD and kin) unless a float64(...) conversion rounds the
# product first, as the Go spec allows; amd64 never fuses. fma-check
# cross-compiles the packages that compute result bytes for arm64 and
# fails on any fused instruction, or on an empty listing.
FMA_PKGS := sim machine energy noc dram cache coherence ce arc aim core stats static bench

fma-check:
	@asm="$$(mktemp)"; trap 'rm -f "$$asm"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags=-S $(addprefix ./internal/,$(FMA_PKGS)) >"$$asm" 2>&1 \
		|| { cat "$$asm"; exit 1; }; \
	grep -q STEXT "$$asm" || { echo "fma-check: no assembly listing"; exit 1; }; \
	if grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' "$$asm"; then \
		echo "fma-check: fused multiply-add above; wrap the product in float64(...)"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in $(words $(FMA_PKGS)) packages"

bench:
	{ $(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -count=1 -run='^$$' . && \
	  $(GO) test -bench=. -benchmem -benchtime=300ms -count=1 -run='^$$' ./internal/...; } \
		| $(GO) run ./cmd/benchjson -o $(BENCHOUT)

benchcmp:
	@test -n "$(BENCHBASE)" || { echo "benchcmp: no committed BENCH_NNNN.json baseline"; exit 1; }
	$(GO) test -bench='^Benchmark(F[1-4]|R1SeedRobustness|TIERTiered|WITWitness)' -benchmem \
		-benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -count=1 -run='^$$' . \
		| $(GO) run ./cmd/benchjson -o /tmp/benchcmp.json
	$(GO) run ./cmd/benchjson -compare $(BENCHBASE) /tmp/benchcmp.json \
		-tolerance-pct $(BENCHCMP_TOLERANCE) -metrics B/op,allocs/op

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzConformance -fuzztime=$(FUZZTIME) ./internal/conformance/
	$(GO) test -run='^$$' -fuzz=FuzzStatic -fuzztime=$(FUZZTIME) ./internal/conformance/
	$(GO) test -run='^$$' -fuzz=FuzzPhasePar -fuzztime=$(FUZZTIME) ./internal/conformance/
	$(GO) test -run='^$$' -fuzz=FuzzWitness -fuzztime=$(FUZZTIME) ./internal/conformance/
	$(GO) test -run='^$$' -fuzz=FuzzSchedPlan -fuzztime=$(FUZZTIME) ./internal/sched/

ci: build vet lint fmt-check fma-check test race
