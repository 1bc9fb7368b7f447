#!/usr/bin/env sh
# CI gate for the RLB simulator. Runs the tiers in fail-fast order:
#
#   1. build       — everything compiles
#   2. lint        — go vet + simlint (determinism / poolcheck / timercheck /
#                    unitsafe / hotpath / exhaustive; see TESTING.md "Static
#                    analysis tier"). Findings are also captured as a JSON
#                    Lines artifact (simlint.jsonl under $CI_ARTIFACT_DIR,
#                    default artifacts/) for tooling, even when the tier
#                    fails.
#   3. race smoke  — -race -short over the simulator internals
#   4. full suite  — bench-smoke perf gate + all tests incl. golden figures
#   5. spec verify — canonical-spec contracts: byte-stable JSON round trips,
#                    compiler/Scale threshold agreement, figure-grid golden,
#                    committed corpus + repro fixture decode (TESTING.md
#                    "Spec round-trip tier")
#   6. telemetry   — observation-only contract: fingerprints bit-identical
#                    with sampling on/off, JSONL golden byte-stable, sampler
#                    tick allocation-free (TESTING.md "Telemetry tier")
#   7. simbench    — vet + tests of the separate simbench module, which the
#                    root `go test ./...` never builds
#   8. fuzz smoke  — metamorphic scenario sweep + seeded-breach meta-test +
#                    time-boxed mutating fuzz over the committed corpus
#   9. bench gate  — figure/scale events/sec vs the committed BENCH_PR10.json
#                    (±10%), on by default; RLB_BENCH_GATE=0 opts out. The
#                    committed record is copied next to simlint.jsonl as an
#                    artifact.
#
# Each tier only runs if the previous one passed, so a compile error is not
# buried under lint output and a lint finding is not buried under test logs.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

echo "==> build"
"$GO" build ./...

echo "==> lint (vet + simlint)"
"$GO" vet ./...
# Run simlint twice: the human-readable gate, plus a machine-readable JSON
# Lines artifact. The JSON run goes first and is allowed to "fail" (findings
# exit 1) so the artifact exists even when the gate below stops CI.
ARTIFACT_DIR=${CI_ARTIFACT_DIR:-artifacts}
mkdir -p "$ARTIFACT_DIR"
"$GO" run ./cmd/simlint -json ./... > "$ARTIFACT_DIR/simlint.jsonl" || true
echo "    simlint findings artifact: $ARTIFACT_DIR/simlint.jsonl"
"$GO" run ./cmd/simlint ./...

echo "==> race smoke (-race -short)"
"$GO" test -race -short ./internal/...

# The lint and race tiers above already ran, so invoke the remaining
# `make test` pieces directly instead of re-running them through make.
echo "==> full suite (perf smoke + tests + golden figures)"
make bench-smoke
"$GO" test ./...

# The spec tests also ran inside `go test ./...`; the dedicated tier re-runs
# them uncached (-count=1) so a cached pass can never mask a drifted golden
# or corpus file, and so the tier is meaningful standalone.
echo "==> spec verify (round trips, compiler math, grid golden, corpus)"
make spec-verify

# The telemetry tests also ran inside `go test ./...`; the dedicated tier
# re-runs them uncached so a cached pass can never mask a drifted telemetry
# golden, a fingerprint divergence, or a sampler tick that started allocating.
echo "==> telemetry verify (on/off parity, JSONL golden, zero-alloc tick)"
make telemetry-verify

# simbench is its own module: nothing above compiled it, so an API change it
# depends on would otherwise surface only when the benchmark is next run.
echo "==> simbench (separate module: vet + tests)"
make simbench-test

# The deterministic halves of the fuzz tier (sweep + meta-test) already ran
# inside `go test ./...`; re-running them here is cheap and keeps the tier
# self-contained when invoked standalone. The -fuzztime bound keeps the
# mutating half deterministic in duration, not in coverage — real fuzzing
# sessions use `make fuzz`.
echo "==> fuzz smoke (metamorphic sweep + seeded breach + 20s mutation)"
make fuzz-smoke

# Perf regression gate: events/sec vs the committed BENCH_PR10.json (±10%),
# on by default now that the data plane is gated on staying map- and
# allocation-free. Wall-clock sensitive — set RLB_BENCH_GATE=0 to opt out on
# a noisy machine or one that does not match where the record was captured.
# The committed record ships as an artifact next to simlint.jsonl either way.
cp BENCH_PR10.json "$ARTIFACT_DIR/BENCH_PR10.json"
echo "    bench record artifact: $ARTIFACT_DIR/BENCH_PR10.json"
if [ "${RLB_BENCH_GATE:-1}" = "1" ]; then
	echo "==> bench gate (events/sec vs BENCH_PR10.json)"
	make bench-gate
fi

echo "==> ci passed"
