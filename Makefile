GO ?= go

.PHONY: all build test short race race-short vet lint simlint golden grids-golden spec-verify telemetry-verify telemetry-golden simbench-test bench bench-smoke bench-json bench-gate fuzz-smoke fuzz cover clean ci

all: build lint test

build:
	$(GO) build ./...

# Tier-1 gate: static analysis, the race-detector smoke pass, the
# allocation-free hot-path smoke check, and the full suite including the
# bench-scale golden-figure regression (see TESTING.md).
test: lint race-short bench-smoke
	$(GO) test ./...

# Perf smoke: the engine-dispatch zero-alloc assertion plus one quick pass
# over the engine and port micro-benchmarks. Fails the build if the hot path
# starts allocating again.
bench-smoke:
	$(GO) test -run 'TestEngineDispatchZeroAlloc' -count=1 ./internal/sim/
	$(GO) test -run '^$$' -bench 'EngineDispatchTyped|PortPingPong' -benchtime 100x -benchmem ./internal/sim/ ./internal/fabric/

# Regenerate the committed perf trajectory: run the tracked benchmarks and
# join them against the PR-9 record (BENCH_PR9.json, the flat-table data
# plane) into BENCH_PR10.json. Figures run at 3 iterations to match how the
# baseline was captured; the telemetry sampler micro-benchmark is new in
# PR 10 and appears without a "before". Telemetry stays disabled in every
# figure benchmark, so the record doubles as the disabled-telemetry parity
# proof against PR 9. See TESTING.md's Performance section.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineScheduleRun|BenchmarkEngineDispatchTyped|BenchmarkEngineScheduleCancel|BenchmarkEngineBucketRollover' -benchmem ./internal/sim/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFlatmapGet|BenchmarkFlatmapPutDelete|BenchmarkFlatmapStamps' -benchmem ./internal/flatmap/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSamplerTick' -benchmem ./internal/telemetry/ ; \
	  $(GO) test -run '^$$' -bench 'Fig3MotivationPFC|Fig6FCTCDFSymmetric|Fig8aIncastDegree|ScaleFabric' -benchmem -benchtime 3x . ; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_PR9.json \
		-note "after: receiver dup-accounting fixes + observation-only telemetry layer (disabled in figure benches)" -out BENCH_PR10.json
	@cat BENCH_PR10.json

# Perf regression gate: rerun the figure and scale benchmarks and compare
# events/sec against the committed BENCH_PR10.json with a ±10% tolerance.
# Wall-clock sensitive; scripts/ci.sh runs it by default (RLB_BENCH_GATE=0
# opts out on noisy or mismatched machines).
bench-gate:
	$(GO) test -run '^$$' -bench 'Fig3MotivationPFC|Fig6FCTCDFSymmetric|Fig8aIncastDegree|ScaleFabric' -benchmem -benchtime 3x . \
	| $(GO) run ./cmd/benchjson -gate BENCH_PR10.json -tolerance 10

# Telemetry tier (TESTING.md "Telemetry tier"): the observation-only
# contract in one command — determinism fingerprints bit-identical with
# sampling on and off, the exported JSONL pinned byte-for-byte to its golden,
# and the sampler/registry/exporter unit suite including the steady-state
# zero-allocation assertion.
telemetry-verify:
	$(GO) test -count=1 ./internal/telemetry/
	$(GO) test -count=1 -run 'TestTelemetry' ./internal/harness/

# Benchmark-module tier: simbench is its own Go module (simbench/go.mod
# replaces the simulator module with ../), so the root `go test ./...` never
# builds it. Vet and test it here so a change to an API it calls — harness,
# spec, telemetry.Recording — cannot break the benchmark silently.
simbench-test:
	cd simbench && $(GO) vet ./... && $(GO) test ./...

# Refresh the committed telemetry golden after an intentional change to the
# exporter format or the simulation's observable trajectory; review the diff.
telemetry-golden:
	$(GO) test ./internal/harness/ -run TestTelemetryGoldenJSONL -update-telemetry

# Fuzz tier (see TESTING.md "Fuzz tier"): the deterministic metamorphic
# sweep (50 generated scenarios, every property checked, failures shrunk
# into repro files) plus the seeded-breach meta-test proving the pipeline
# catches real bugs, then a time-boxed run of the mutating fuzzer over the
# committed corpus. Scenario failures write repro files replayable with
# `rlbsim -repro <file>` (set RLB_REPRO_DIR to choose where).
fuzz-smoke:
	$(GO) test -run 'TestMetamorphicSweep|TestSeededBreachIsCaughtAndShrunk' -count=1 ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 20s ./internal/scenario/

# Open-ended fuzzing session: run until interrupted or a failure is found.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScenario ./internal/scenario/

# Coverage over the simulator internals (the golden-figure runs at the repo
# root dominate runtime and add little line coverage, so internal/... only).
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

# Quick iteration loop: skips the bench-scale golden run.
short:
	$(GO) test -short ./...

# Race-enabled pass over the simulator internals. The strict invariant tier
# runs inside TestStrictInvariantsCleanAcrossSchemes, so this exercises the
# harness's worker parallelism, the checker, and the data plane together.
race:
	$(GO) test -race ./internal/...

# Race-detector smoke: same packages as `race` but with -short, skipping the
# bench-scale golden runs. Fast enough to sit inside `make test`.
race-short:
	$(GO) test -race -short ./internal/...

vet:
	$(GO) vet ./...

# Static-analysis tier: go vet plus the project-specific simlint suite
# (determinism, poolcheck, timercheck, unitsafe — see TESTING.md).
lint: vet simlint

simlint:
	$(GO) run ./cmd/simlint ./...

# Spec-layer verification tier (TESTING.md "Spec round-trip tier"): the
# canonical-spec contracts in one command — JSON round trips byte-stable with
# unknown fields rejected, the compiler's unit math pinned to harness.Scale,
# the declarative figure grids pinned to their golden, a serialized cell
# replaying bit-identically, and every committed fuzz-corpus entry and repro
# fixture still decoding.
spec-verify:
	$(GO) test -count=1 ./internal/spec/
	$(GO) test -count=1 -run 'TestCompile|TestFigureGrids' ./internal/harness/
	$(GO) test -count=1 -run 'TestCommittedCorpusStillDecodes|TestCommittedReproStillReplays' ./internal/scenario/

# Full CI sequence: build → lint → race smoke → full suite with goldens.
ci:
	./scripts/ci.sh

# Refresh the committed golden figures after an intentional behavior change,
# then review the diff (TESTING.md explains what "intentional" means here).
golden:
	$(GO) test ./internal/harness/ -run TestGoldenFigures -update-golden

# Refresh the committed figure-grid golden after deliberately changing which
# experiments a figure runs, then review the diff.
grids-golden:
	$(GO) test ./internal/harness/ -run TestFigureGridsGolden -update-grids

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

clean:
	$(GO) clean ./...
