#!/usr/bin/env bash
# Machine-readable benchmark snapshots, tracked in-repo so the perf
# trajectory is visible across PRs. Writes google-benchmark JSON via the
# shared `--json OUT` flag (bench/bench_main.cpp):
#
#   BENCH_static.json   bench_static          — static pass throughput (E11)
#   BENCH_sharded.json  bench_sharded         — sharded replay scaling (E8b)
#   BENCH_io.json       bench_io              — trace codec + service (E12)
#   BENCH_parallel.json bench_parallel_detect — online detection, DSU vs DePa (E13)
#   BENCH_service.json  bench_service         — worker-pool saturation (E15)
#
# Snapshots are produced from a dedicated Release tree (build-bench/): the
# dev tree's build type is whatever the developer last configured, and a
# debug snapshot silently poisons every cross-commit comparison. Belt and
# suspenders, each JSON's `race2d_build_type` context (bench/bench_main.cpp)
# is checked and non-release results are refused.
#
# Acceptance gates (all fail the script loudly):
#   * BM_BinaryDecode >= 2x BM_TextParse on items_per_second (E12).
#   * BM_CompressedDecode's v1/v2 size ratio >= 2x on the repetitive
#     workload, and BM_RunReplay/1 (compressed ingest with the run fast
#     path) >= 1.5x BM_RunReplay/0 (plain ingest) on events/s (E17).
#   * BM_ServicePoolSaturation/4 >= 2.5x the 1-worker row (E15) — enforced
#     only when the machine has >= 4 CPUs; on smaller hosts the pool rows
#     bound overhead, not speedup (same caveat as E7).
#   * No key benchmark regresses >20% on items_per_second vs the checked-in
#     baseline JSON (RACE2D_BENCH_ACCEPT=1 skips this to accept a new
#     baseline after an understood change or a machine switch).
#
# Usage: scripts/bench.sh [--quick]
#
# --quick caps per-benchmark time (0.05s) for smoke runs; the committed
# snapshots are produced without it. Numbers are machine-dependent — treat
# cross-commit deltas as trends, not absolutes (reference machine:
# EXPERIMENTS.md E7).
set -euo pipefail
cd "$(dirname "$0")/.."

extra=()
if [[ "${1:-}" == "--quick" ]]; then
  extra+=(--benchmark_min_time=0.05)
fi

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j "$(nproc)" \
  --target bench_static bench_sharded bench_io bench_parallel_detect \
  bench_service

run_bench() {
  local bin="$1" out="$2"
  echo "== ${bin} -> ${out}"
  # Write to a staging file so the gates below can compare against the
  # checked-in baseline before it is overwritten.
  "./build-bench/bench/${bin}" --json "${out}.new" \
    --benchmark_repetitions=1 "${extra[@]}"
}

run_bench bench_static BENCH_static.json
run_bench bench_sharded BENCH_sharded.json
run_bench bench_io BENCH_io.json
run_bench bench_parallel_detect BENCH_parallel.json
run_bench bench_service BENCH_service.json

python3 - <<'EOF'
import json
import multiprocessing
import os
import sys

SNAPSHOTS = ["BENCH_static.json", "BENCH_sharded.json", "BENCH_io.json",
             "BENCH_parallel.json", "BENCH_service.json"]
# Key throughput rows held to the <=20% regression gate. Names must match
# the google-benchmark `name` field exactly.
GATED = {
    "BENCH_io.json": ["BM_TextParse", "BM_BinaryDecode", "BM_CompressedDecode",
                      "BM_RunReplay/1", "BM_SpillRehydrate"],
    "BENCH_parallel.json": ["BM_SerialOnlineDetect/real_time",
                            "BM_DepaSerialReplay"],
    "BENCH_service.json": ["BM_ServicePoolSaturation/1/real_time",
                           "BM_SnapshotRoundTrip"],
}

def rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {b["name"]: b for b in doc["benchmarks"]}

failed = False

# Gate 0: refuse debug snapshots.
for snap in SNAPSHOTS:
    doc, _ = rows(snap + ".new")
    build = doc["context"].get("race2d_build_type", "unknown")
    if build != "release":
        print(f"bench.sh: REFUSED {snap}: race2d_build_type={build!r} "
              f"(snapshots must come from a Release build)")
        failed = True

# Gate 1: binary decode >= 2x text parse (E12).
_, io_rows = rows("BENCH_io.json.new")
text = io_rows["BM_TextParse"]["items_per_second"]
binary = io_rows["BM_BinaryDecode"]["items_per_second"]
ratio = binary / text
print(f"bench.sh: binary decode {binary:.3g} events/s vs text parse "
      f"{text:.3g} events/s ({ratio:.1f}x)")
if ratio < 2.0:
    print(f"bench.sh: FAILED: binary decode only {ratio:.2f}x text parse "
          f"(< 2x gate)")
    failed = True

# Gate 1b: run compression halves the repetitive workload on disk, and the
# run-aware replay fast path beats plain ingest on events/s (E17).
zrow = io_rows["BM_CompressedDecode"]
zratio = zrow["ratio"]
print(f"bench.sh: v2 compression {zrow['v1_bytes']:.0f} -> "
      f"{zrow['v2_bytes']:.0f} bytes ({zratio:.1f}x) on the repetitive "
      f"workload")
if zratio < 2.0:
    print(f"bench.sh: FAILED: run compression only {zratio:.2f}x on the "
          f"repetitive workload (< 2x gate)")
    failed = True
plain = io_rows["BM_RunReplay/0"]["items_per_second"]
zfast = io_rows["BM_RunReplay/1"]["items_per_second"]
zspeed = zfast / plain
print(f"bench.sh: run replay {zfast:.3g} events/s compressed vs "
      f"{plain:.3g} events/s plain ({zspeed:.2f}x)")
if zspeed < 1.5:
    print(f"bench.sh: FAILED: run-aware replay only {zspeed:.2f}x plain "
          f"ingest on the repetitive workload (< 1.5x gate)")
    failed = True

# Gate 2: service pool >= 2.5x at 4 workers vs 1 (E15), hardware-permitting.
cpus = multiprocessing.cpu_count()
_, svc_rows = rows("BENCH_service.json.new")
svc1 = svc_rows["BM_ServicePoolSaturation/1/real_time"]["items_per_second"]
svc4 = svc_rows["BM_ServicePoolSaturation/4/real_time"]["items_per_second"]
svc_speedup = svc4 / svc1
print(f"bench.sh: service pool at 4 workers {svc4:.3g} events/s vs 1 worker "
      f"{svc1:.3g} events/s ({svc_speedup:.2f}x on {cpus} CPU(s))")
if cpus >= 4 and svc_speedup < 2.5:
    print(f"bench.sh: FAILED: service pool only {svc_speedup:.2f}x the "
          f"1-worker row at 4 workers (< 2.5x gate, machine has {cpus} CPUs)")
    failed = True
elif cpus < 4:
    print(f"bench.sh: 2.5x-at-4-workers service gate skipped: only {cpus} "
          f"CPU(s)")

# Gate 3: no >20% items_per_second regression vs the checked-in baselines.
if os.environ.get("RACE2D_BENCH_ACCEPT") == "1":
    print("bench.sh: RACE2D_BENCH_ACCEPT=1, regression gate skipped")
else:
    for snap, names in GATED.items():
        if not os.path.exists(snap):
            continue  # no baseline yet — first snapshot on this machine
        _, old = rows(snap)
        _, new = rows(snap + ".new")
        for name in names:
            if name not in old or name not in new:
                continue
            before = old[name].get("items_per_second")
            after = new[name].get("items_per_second")
            if not before or not after:
                continue
            if after < 0.8 * before:
                print(f"bench.sh: FAILED: {snap}:{name} regressed "
                      f"{(1 - after / before) * 100:.0f}% "
                      f"({before:.3g} -> {after:.3g} items/s; >20% gate). "
                      f"If intentional or a machine change, rerun with "
                      f"RACE2D_BENCH_ACCEPT=1.")
                failed = True

if failed:
    sys.exit(1)

for snap in SNAPSHOTS:
    os.replace(snap + ".new", snap)
print("bench.sh: wrote " + " ".join(SNAPSHOTS))
EOF
