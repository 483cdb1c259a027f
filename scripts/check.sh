#!/usr/bin/env bash
# Correctness gate (its tier-1, ASan and TSan builds treat a compiler
# warning as an error): a static check that one codec header holds every
# little-endian byte loop, the tier-1 build + test cycle, the opt-in soak
# (one detection session fed 10^8 events must hold its memory flat), a
# 30-second fixed-seed differential fuzz smoke (race2d_fuzz cross-checks
# every detector on seeded random programs; any mismatch fails the
# gate), a 2-second end-to-end perfbench run per workload (reports
# checked, every request answered OK), an ASan+UBSan Debug build of the
# FULL test suite with R2D_ASSERT and libstdc++ assertions live (the
# verify layer intentionally feeds corrupt traces to every detector; the
# sanitizers prove the rejection paths never read past a buffer), then a ThreadSanitizer build of the concurrency-bearing
# tests (the parallel executor and the race2dd worker pool spawn real
# threads; TSan checks they share state only through synchronized paths).
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

echo "== byte-layer gate: one little-endian codec"
# Every binary format (R2DT traces, service frames and payloads, snapshot
# blobs, spill files) writes and reads its fixed-width integers through
# src/io/byte_codec.hpp. A byte loop spelled out anywhere else in src/ or
# examples/ (the `(8 * i)` shift every private copy used) fails the gate.
if grep -rn --include='*.cpp' --include='*.hpp' -F '(8 * i)' src examples \
    | grep -v '^src/io/byte_codec\.hpp:'; then
  echo "check.sh: a little-endian byte loop outside src/io/byte_codec.hpp;" \
    "use put_le/get_le/ByteReader"
  exit 1
fi
echo "byte-layer gate: only src/io/byte_codec.hpp spells out a byte loop"

echo "== tier-1: configure + build + ctest"
# CMake >= 3.24 turns CMAKE_COMPILE_WARNING_AS_ERROR into -Werror.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure)

echo "== soak: 10^8 events through one session, memory flat after 10^7"
# The soak is registered under the Soak configuration, so a plain ctest
# (tier-1 above, and the sanitizer stages below) never selects it; its
# 4*10^6-event twin runs in tier-1 as soak_test.
(cd build && ctest -C Soak -L soak --output-on-failure)

echo "== smoke fuzz: 30-second differential campaign (fixed seed)"
# Every trace runs the full detector panel (serial, DePa label backend,
# offline, naive gold, baselines, certification) plus the codec
# round-trip and byte-corruption invariants; any verdict mismatch,
# certificate rejection, or codec hole exits non-zero. The DePa stage
# demands BIT-IDENTICAL reports to serial replay, not just the same
# verdict. Fixed seed => reproducible.
./build/examples/race2d_fuzz --seed 20260806 --runs 100000 --time-budget 30

echo "== service smoke: race2dd pipe mode vs offline detector"
# Stream every corpus trace (text AND its binary twin) through a spawned
# race2dd daemon with race2d_client; the incremental report stream the
# service drains must be bit-identical to the offline serial detector's.
# Each stream goes twice: in the default 64 KiB FEEDs, and in 7-byte FEEDs,
# so every chunk is reassembled from many FEEDs before the session (the
# decoder's event sink) sees its events.
service_smoke=0
for trace in tests/corpus/*.trace tests/corpus/*.btrace; do
  ./build/examples/example_trace_analyzer --reports "$trace" \
    > /tmp/race2d_offline.txt
  for frame in 65536 7; do
    ./build/examples/race2d_client --frame="$frame" \
      --spawn ./build/examples/race2dd detect "$trace" \
      > /tmp/race2d_service.txt 2>/dev/null
    if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
      echo "check.sh: service reports diverge from offline detector:" \
        "$trace (--frame=$frame)"
      service_smoke=1
    fi
  done
done
[[ "$service_smoke" == "0" ]] || exit 1
echo "service smoke: reports bit-identical across $(ls tests/corpus/*.trace tests/corpus/*.btrace | wc -l) corpus streams, in 64 KiB and 7-byte FEEDs"

echo "== service smoke: race2dd socket mode, 4 workers"
# The same corpus through the OTHER transport and the multi-worker pool: an
# AF_UNIX daemon with 4 workers, driven over the socket by four clients at
# a time, so every shard loop serves a connection concurrently. Accepting,
# the round-robin hand-off to the shard loops, worker pinning and
# per-connection response ordering all sit on this path; reports must stay
# bit-identical to the offline detector.
socket_path="/tmp/race2dd-check-$$.sock"
./build/examples/race2dd --socket="$socket_path" --workers=4 \
  2>/tmp/race2dd_check.log &
race2dd_pid=$!
for _ in $(seq 50); do
  [[ -S "$socket_path" ]] && break
  sleep 0.1
done
socket_out=$(mktemp -d /tmp/race2d-socket-XXXXXX)
corpus=(tests/corpus/*.trace tests/corpus/*.btrace)
for ((i = 0; i < ${#corpus[@]}; i += 4)); do
  client_pids=()
  for trace in "${corpus[@]:i:4}"; do
    ./build/examples/race2d_client \
      --socket "$socket_path" detect "$trace" \
      > "$socket_out/$(basename "$trace").txt" 2>/dev/null &
    client_pids+=($!)
  done
  for pid in "${client_pids[@]}"; do wait "$pid"; done
done
socket_smoke=0
for trace in "${corpus[@]}"; do
  ./build/examples/example_trace_analyzer --reports "$trace" \
    > /tmp/race2d_offline.txt
  if ! diff -u /tmp/race2d_offline.txt "$socket_out/$(basename "$trace").txt"; then
    echo "check.sh: socket service reports diverge from offline: $trace"
    socket_smoke=1
  fi
done
kill "$race2dd_pid" 2>/dev/null || true
wait "$race2dd_pid" 2>/dev/null || true
rm -rf "$socket_path" "$socket_out"
[[ "$socket_smoke" == "0" ]] || exit 1
echo "socket smoke: reports bit-identical across the corpus via 4 workers, 4 clients at a time"

echo "== recycling smoke: the corpus through one shard, sessions reused"
# A shard keeps small closed sessions and resets one for its next OPEN
# (src/service/service.hpp, "Recycling"). One race2d_client run streams
# every corpus stream, text and binary, in 7-byte FEEDs through a 1-worker
# daemon, so every session after the first runs on a recycled one. The
# reports must equal the offline detector's over the same files, and STATS
# must count a reuse for every file but the first: a leg in which nothing
# was recycled would prove nothing.
recycle_sock="/tmp/race2dd-recycle-$$.sock"
./build/examples/race2dd --socket="$recycle_sock" --workers=1 \
  2>/tmp/race2dd_recycle.log &
recycle_pid=$!
for _ in $(seq 50); do
  [[ -S "$recycle_sock" ]] && break
  sleep 0.1
done
corpus=(tests/corpus/*.trace tests/corpus/*.btrace)
for trace in "${corpus[@]}"; do
  ./build/examples/example_trace_analyzer --reports "$trace"
done > /tmp/race2d_offline.txt
recycle_smoke=0
./build/examples/race2d_client --socket "$recycle_sock" --frame=7 \
  detect "${corpus[@]}" > /tmp/race2d_service.txt 2>/dev/null \
  || recycle_smoke=1
if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
  echo "check.sh: reports of recycled sessions diverge from offline"
  recycle_smoke=1
fi
./build/examples/race2d_client --socket "$recycle_sock" stats \
  > /tmp/race2dd_recycle_stats.txt 2>/dev/null || true
if ! grep -q "\"sessions_recycled\":$(( ${#corpus[@]} - 1 ))[,}]" \
    /tmp/race2dd_recycle_stats.txt; then
  echo "check.sh: recycling smoke expected $(( ${#corpus[@]} - 1 ))" \
    "recycled sessions"
  cat /tmp/race2dd_recycle_stats.txt
  recycle_smoke=1
fi
kill "$recycle_pid" 2>/dev/null || true
wait "$recycle_pid" 2>/dev/null || true
rm -f "$recycle_sock"
[[ "$recycle_smoke" == "0" ]] || exit 1
echo "recycling smoke: ${#corpus[@]} corpus streams bit-identical, $(( ${#corpus[@]} - 1 )) on recycled sessions"

echo "== compress/spill matrix smoke: v2 corpus through a spill-enabled pool"
# The compression x spill matrix. Every corpus stream is (1) cross-checked
# by race2d_convert --verify (v2 expands to the identical events and
# re-encodes to the identical v1 bytes), (2) re-encoded as a version-2
# run-compressed binary, and (3) driven through a 2-worker daemon whose
# global quota is so small that EVERY feed sweep spills the session to the
# cold tier and the next frame rehydrates it. The drained report stream
# must stay bit-identical to the offline serial detector on the ORIGINAL
# uncompressed trace — compression and the spill/rehydrate cycle may never
# change a verdict.
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
  ./build/examples/race2d_client \
    --socket "$spill_sock" --frame=4096 detect "$z" \
    > /tmp/race2d_service.txt 2>/dev/null
  if ! diff -u /tmp/race2d_offline.txt /tmp/race2d_service.txt; then
    echo "check.sh: spilled reports diverge from offline: $trace"
    matrix_smoke=1
  fi
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
echo "compress/spill matrix smoke: reports bit-identical across $(ls tests/corpus/*.trace | wc -l) v2 streams"

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

echo "== perfbench smoke: end-to-end race2dd benchmark, 2 s per workload"
# perfbench/run.py builds race2dd and its load generator from these sources
# in a Release tree (.bench_build/), drives the daemon over its socket and
# checks every session's drained reports against detect_races_trace. The
# stage fails unless a run is correct and every request is answered OK.
for workload in bulk chatty; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2 --trace 0 | tail -n 1)
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["metrics"]["ok_share"]["value"] == 1
         else 1)
' "$result"; then
    echo "check.sh: perfbench $workload run is not correct or not all OK"
    echo "$result"
    exit 1
  fi
  echo "perfbench smoke: $workload correct, ok_share 1"
done

if [[ "${RACE2D_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan/UBSan skipped (RACE2D_SKIP_ASAN=1)"
else
  echo "== AddressSanitizer + UBSan build (full test suite, invariants live)"
  # Debug, so no -DNDEBUG: every R2D_ASSERT runs, and -O1 is not overridden
  # by the RelWithDebInfo flags that would otherwise follow it.
  # _GLIBCXX_ASSERTIONS adds libstdc++'s bounds and precondition checks.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g -D_GLIBCXX_ASSERTIONS" \
    >/dev/null
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure)
fi

if [[ "${RACE2D_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan skipped (RACE2D_SKIP_TSAN=1)"
else
  echo "== ThreadSanitizer build (parallel executor + service pool)"
  # service_pool_test hammers STATS against concurrent feeds (the metrics
  # counters must be atomics), service_test drives the pipe transport
  # through a worker pool's shard threads, and service_fuzz_test runs
  # adversarial clients, cross-shard forwarding and fd exhaustion against
  # the live acceptor and shard loops. snapshot_test migrates sessions
  # across pool workers; it, live_tasks_test and soak_test also cover the
  # compacting task tables the sessions carry.
  cmake -B build-tsan -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1 -g" \
    >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target \
    parallel_executor_test service_pool_test service_test service_fuzz_test \
    snapshot_test live_tasks_test soak_test
  ./build-tsan/tests/parallel_executor_test
  ./build-tsan/tests/service_pool_test
  ./build-tsan/tests/service_test
  ./build-tsan/tests/service_fuzz_test
  ./build-tsan/tests/snapshot_test
  ./build-tsan/tests/live_tasks_test
  ./build-tsan/tests/soak_test
fi

if [[ "${RACE2D_SKIP_TIDY:-0}" == "1" ]]; then
  echo "== clang-tidy skipped (RACE2D_SKIP_TIDY=1)"
else
  echo "== clang-tidy gate (.clang-tidy WarningsAsErrors families)"
  scripts/tidy.sh
fi

echo "check.sh: all green"
