#!/usr/bin/env bash
# Correctness gate: the tier-1 build + test cycle, a 30-second fixed-seed
# differential fuzz smoke (race2d_fuzz cross-checks every detector on
# seeded random programs; any mismatch fails the gate), an ASan+UBSan
# build of the FULL test suite (the verify layer intentionally feeds
# corrupt traces to every detector; the sanitizers prove the rejection
# paths never read past a buffer), then a ThreadSanitizer build of the
# concurrency-bearing tests (the sharded trace analyzer spawns real threads; TSan checks the
# workers share nothing but the read-only trace and their private
# reporters).
# clang-tidy is a gated stage when installed: findings in the
# WarningsAsErrors families of .clang-tidy fail the gate (scripts/tidy.sh
# still exits 0 when the tool is absent, as in the reference container).
#
# Usage: scripts/check.sh            full gate (tier-1 + ASan/UBSan + TSan)
#        RACE2D_SKIP_ASAN=1 scripts/check.sh    skip the ASan/UBSan pass
#        RACE2D_SKIP_TSAN=1 scripts/check.sh    skip the TSan pass
#        RACE2D_SKIP_TIDY=1 scripts/check.sh    skip the clang-tidy gate
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure)

echo "== smoke fuzz: 30-second differential campaign (fixed seed)"
# Every trace runs the full detector panel (serial, DePa label backend,
# sharded, offline, naive gold, baselines, certification) plus the codec
# round-trip and byte-corruption invariants; any verdict mismatch,
# certificate rejection, or codec hole exits non-zero. The DePa stage
# demands BIT-IDENTICAL reports to serial replay, not just the same
# verdict. Fixed seed => reproducible.
./build/examples/race2d_fuzz --seed 20260806 --runs 100000 --time-budget 30

echo "== service smoke: race2dd pipe mode vs offline detector"
# Stream every corpus trace (text AND its binary twin) through a spawned
# race2dd daemon with race2d_client; the incremental report stream the
# service drains must be bit-identical to the offline serial detector's.
service_smoke=0
for trace in tests/corpus/*.trace tests/corpus/*.btrace; do
  ./build/examples/example_trace_analyzer --reports "$trace" \
    > /tmp/race2d_offline.txt
  ./build/examples/race2d_client \
    --spawn ./build/examples/race2dd detect "$trace" \
    > /tmp/race2d_service.txt 2>/dev/null
  if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
    echo "check.sh: service reports diverge from offline detector: $trace"
    service_smoke=1
  fi
done
[[ "$service_smoke" == "0" ]] || exit 1
echo "service smoke: reports bit-identical across $(ls tests/corpus/*.trace tests/corpus/*.btrace | wc -l) corpus streams"

echo "== service smoke: race2dd epoll socket mode, 4 workers"
# The same corpus through the OTHER transport and the sharded pool: an
# AF_UNIX daemon with 4 detector workers, driven over the socket. The epoll
# loop, worker pinning and per-connection response ordering all sit on this
# path; reports must stay bit-identical to the offline detector.
socket_path="/tmp/race2dd-check-$$.sock"
./build/examples/race2dd --socket="$socket_path" --workers=4 \
  2>/tmp/race2dd_check.log &
race2dd_pid=$!
for _ in $(seq 50); do
  [[ -S "$socket_path" ]] && break
  sleep 0.1
done
socket_smoke=0
for trace in tests/corpus/*.trace tests/corpus/*.btrace; do
  ./build/examples/example_trace_analyzer --reports "$trace" \
    > /tmp/race2d_offline.txt
  ./build/examples/race2d_client \
    --socket "$socket_path" detect "$trace" \
    > /tmp/race2d_service.txt 2>/dev/null
  if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
    echo "check.sh: socket service reports diverge from offline: $trace"
    socket_smoke=1
  fi
done
kill "$race2dd_pid" 2>/dev/null || true
wait "$race2dd_pid" 2>/dev/null || true
rm -f "$socket_path"
[[ "$socket_smoke" == "0" ]] || exit 1
echo "socket smoke: reports bit-identical across the corpus via 4 workers"

echo "== compress/spill matrix smoke: v2 corpus through a spill-enabled pool"
# The engine x compression matrix. Every corpus stream is (1) cross-checked
# by race2d_convert --verify (v2 expands to the identical events and
# re-encodes to the identical v1 bytes), (2) re-encoded as a version-2
# run-compressed binary, and (3) driven through a 2-worker daemon whose
# global quota is so small that EVERY feed sweep spills the session to the
# cold tier and the next frame rehydrates it. For both engines the drained
# report stream must stay bit-identical to the offline serial detector on
# the ORIGINAL uncompressed trace — compression and the spill/rehydrate
# cycle may never change a verdict.
spill_dir=$(mktemp -d /tmp/race2dd-spill-XXXXXX)
v2_dir=$(mktemp -d /tmp/race2d-v2-XXXXXX)
spill_sock="/tmp/race2dd-spill-$$.sock"
./build/examples/race2dd --socket="$spill_sock" --workers=2 \
  --total-quota=1 --spill-dir="$spill_dir" --metrics \
  2>/tmp/race2dd_spill.log &
spill_pid=$!
for _ in $(seq 50); do
  [[ -S "$spill_sock" ]] && break
  sleep 0.1
done
matrix_smoke=0
for trace in tests/corpus/*.trace; do
  if ! ./build/examples/race2d_convert --verify "$trace" 2>/dev/null; then
    echo "check.sh: race2d_convert --verify failed on $trace"
    matrix_smoke=1
    continue
  fi
  z="$v2_dir/$(basename "$trace" .trace).z.btrace"
  ./build/examples/race2d_convert --compress "$trace" "$z" 2>/dev/null
  ./build/examples/example_trace_analyzer --reports "$trace" \
    > /tmp/race2d_offline.txt
  for engine in dsu depa; do
    ./build/examples/race2d_client \
      --socket "$spill_sock" --engine="$engine" --frame=4096 detect "$z" \
      > /tmp/race2d_service.txt 2>/dev/null
    if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
      echo "check.sh: spilled $engine reports diverge from offline: $trace"
      matrix_smoke=1
    fi
  done
done
# The tiny quota must actually have exercised the cold tier: the pool's
# aggregated rehydration counter has to be non-zero.
./build/examples/race2d_client --socket "$spill_sock" stats \
  > /tmp/race2dd_spill_stats.txt 2>/dev/null || true
if ! grep -q '"rehydrations":[1-9]' /tmp/race2dd_spill_stats.txt; then
  echo "check.sh: spill smoke never rehydrated a session (quota too generous?)"
  cat /tmp/race2dd_spill_stats.txt
  matrix_smoke=1
fi
kill "$spill_pid" 2>/dev/null || true
wait "$spill_pid" 2>/dev/null || true
rm -rf "$spill_sock" "$spill_dir" "$v2_dir"
[[ "$matrix_smoke" == "0" ]] || exit 1
echo "compress/spill matrix smoke: reports bit-identical across $(ls tests/corpus/*.trace | wc -l) v2 streams x 2 engines"

echo "== skeleton corpus gate: static analyzer verdicts vs .expect"
# Run the static analyzer over every checked-in skeleton (strict-* files in
# strict mode, the rest under relaxed futures) and diff the full stdout —
# discipline verdict, S-codes, findings, witnesses — against the pinned
# .expect sidecar. Any verdict drift fails the gate. The analyzer exits 1
# when it finds races or lint errors; only exit 2 (usage/crash) is fatal.
skeleton_gate=0
for skel in tests/skeletons/*.skel; do
  expect="${skel%.skel}.expect"
  mode=relaxed-futures
  case "$(basename "$skel")" in strict-*) mode=strict ;; esac
  rc=0
  ./build/examples/example_static_analyzer \
    --skeleton "$skel" --mode="$mode" --races \
    > /tmp/race2d_skel_out.txt 2>&1 || rc=$?
  if [[ "$rc" -ge 2 ]]; then
    echo "check.sh: static analyzer crashed (rc=$rc) on $skel"
    skeleton_gate=1
    continue
  fi
  if ! diff -u "$expect" /tmp/race2d_skel_out.txt; then
    echo "check.sh: static analyzer verdict drifted from $expect"
    skeleton_gate=1
  fi
done
[[ "$skeleton_gate" == "0" ]] || exit 1
echo "skeleton corpus gate: verdicts pinned across $(ls tests/skeletons/*.skel | wc -l) skeletons"

echo "== static smoke: 500-seed static-vs-dynamic agreement sweep"
# Seeded skeleton fuzz across every construct family — raw/spawn/finish,
# futures and hand-offs, pipelines, and the lock families (guarded
# counters, lock-order pairs, semaphore hand-offs). For every explored
# concretization the lockset-refined static verdict must match the dynamic
# detector's lockset-filtered one; a single mismatch fails the gate.
./build/examples/example_static_analyzer --fuzz 500

if [[ "${RACE2D_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan/UBSan skipped (RACE2D_SKIP_ASAN=1)"
else
  echo "== AddressSanitizer + UBSan build (full test suite)"
  cmake -B build-asan -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g" \
    >/dev/null
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure)
fi

if [[ "${RACE2D_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan skipped (RACE2D_SKIP_TSAN=1)"
else
  echo "== ThreadSanitizer build (sharded analyzer + parallel executor + service pool)"
  # service_pool_test hammers STATS against concurrent feeds (the metrics
  # counters must be atomics), and service_fuzz_test runs adversarial
  # clients against the live epoll thread + worker shards.
  cmake -B build-tsan -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1 -g" \
    >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target \
    sharded_analyzer_test parallel_executor_test \
    service_pool_test service_fuzz_test
  ./build-tsan/tests/sharded_analyzer_test
  ./build-tsan/tests/parallel_executor_test
  ./build-tsan/tests/service_pool_test
  ./build-tsan/tests/service_fuzz_test
fi

if [[ "${RACE2D_SKIP_TIDY:-0}" == "1" ]]; then
  echo "== clang-tidy skipped (RACE2D_SKIP_TIDY=1)"
else
  echo "== clang-tidy gate (.clang-tidy WarningsAsErrors families)"
  scripts/tidy.sh
fi

echo "check.sh: all green"
