#!/usr/bin/env bash
# CI entry point: tier-1 verify (full build + ctest), a stress stage that
# repeats the reactor, RPC and chaos tests under CPU contention, a strict
# -Wall -Wextra -Werror compile of the telemetry subsystem and its tests,
# and a Release (-O2 -DNDEBUG) bench smoke that emits BENCH_core.json and
# gates it against bench/thresholds.json (failing, tools/check_bench.py;
# the bench is retried a couple of times so a transient load spike on the
# runner does not fail the pipeline — a real regression fails every try).
# Set VIA_CI_TSAN=1 to additionally run the threaded tests (including the
# reactor worker hammer in test_reactor) under ThreadSanitizer,
# and VIA_CI_ASAN=1 to run the chaos/fault/RPC/federation tests under
# ASan+UBSan;
# the ASan stage dumps flight-recorder + span-buffer JSONL into
# $BUILD_DIR-asan/flight-dump/ when a test fails (uploaded as CI artifacts).
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== stress: reactor + rpc + chaos tests, 20 repeats under contention =="
# Timing-dependent serving tests flake only when the box is busy: repeat
# each case until it fails, at most 20 times, with twice as many tests in
# parallel as there are cores.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L '^test_(reactor|rpc|chaos)$' \
  --repeat until-fail:20 -j "$(( 2 * $(nproc) ))"

echo "== strict: -Werror build of the obs subsystem =="
cmake -B "$BUILD_DIR-werror" -S . -DVIA_WERROR=ON
cmake --build "$BUILD_DIR-werror" -j --target via_obs test_obs

echo "== release: -O2 -DNDEBUG bench_micro_core smoke + BENCH_core.json =="
cmake -B "$BUILD_DIR-release" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR-release" -j --target bench_micro_core
bench_ok=0
for attempt in 1 2 3; do
  echo "-- bench attempt $attempt --"
  VIA_BENCH_JSON="$BUILD_DIR-release/BENCH_core.json" VIA_BENCH_SWEEP_SCALE=small \
    "$BUILD_DIR-release/bench/bench_micro_core" --benchmark_min_time=0.1
  test -s "$BUILD_DIR-release/BENCH_core.json"
  grep -q '"sweep_identical": true' "$BUILD_DIR-release/BENCH_core.json"
  echo "== bench regression gate (failing, bench/thresholds.json) =="
  if python3 tools/check_bench.py "$BUILD_DIR-release/BENCH_core.json" bench/thresholds.json; then
    bench_ok=1
    break
  fi
done
if [[ "$bench_ok" != "1" ]]; then
  echo "ci.sh: bench regression gate failed on every attempt" >&2
  exit 1
fi
echo "BENCH_core.json:"
cat "$BUILD_DIR-release/BENCH_core.json"

echo "== release: bench_scale smoke (1M calls / 100k pairs, bounded RSS) =="
# The §6i streaming-scale smoke: a bounded-memory replay that must finish
# under the RSS cap (bench_scale exits nonzero on a VmHWM breach) and is
# gated warn-only against bench/thresholds_scale.json.
cmake --build "$BUILD_DIR-release" -j --target bench_scale
"$BUILD_DIR-release/bench/bench_scale" --calls 1000000 --pairs 100000 \
  --rss-cap-mb 1024 --json "$BUILD_DIR-release/BENCH_scale.json"
echo "== scale regression gate (bench/thresholds_scale.json) =="
python3 tools/check_bench.py "$BUILD_DIR-release/BENCH_scale.json" bench/thresholds_scale.json
echo "BENCH_scale.json:"
cat "$BUILD_DIR-release/BENCH_scale.json"

if [[ "${VIA_CI_TSAN:-0}" == "1" ]]; then
  echo "== tsan: test_parallel + test_concurrent_policy + test_reactor + test_federation under ThreadSanitizer =="
  cmake -B "$BUILD_DIR-tsan" -S . -DVIA_TSAN=ON
  cmake --build "$BUILD_DIR-tsan" -j --target test_parallel test_concurrent_policy test_reactor test_federation
  "$BUILD_DIR-tsan/tests/test_parallel"
  "$BUILD_DIR-tsan/tests/test_concurrent_policy"
  "$BUILD_DIR-tsan/tests/test_reactor"
  "$BUILD_DIR-tsan/tests/test_federation"
fi

if [[ "${VIA_CI_ASAN:-0}" == "1" ]]; then
  echo "== asan: chaos + fault + rpc + federation tests under ASan+UBSan =="
  cmake -B "$BUILD_DIR-asan" -S . -DVIA_ASAN=ON
  cmake --build "$BUILD_DIR-asan" -j --target test_chaos test_faults test_rpc test_federation
  # On failure each binary dumps its process-wide flight recorder and span
  # buffer as JSONL into this directory (tests/flight_dump.h); the GitHub
  # workflow uploads it as an artifact so a red chaos run is debuggable.
  mkdir -p "$BUILD_DIR-asan/flight-dump"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_chaos"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_faults"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_rpc"
  VIA_FLIGHT_DUMP="$BUILD_DIR-asan/flight-dump" "$BUILD_DIR-asan/tests/test_federation"
fi

echo "== ci.sh: all green =="
