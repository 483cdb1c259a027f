#!/usr/bin/env python3
"""End-to-end race2dd benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk|chatty --seed N \
        --seconds S --trace 0|1

Builds race2dd and the benchmark's generator from the repository sources
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the generator.
The generator starts `race2dd --socket`, drives it closed-loop for S seconds
with the seeded workload, and checks every session's reports against
detect_races_trace. With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of the in-process traced run.

Each run also writes its provenance, its result and (traced runs) the
per-frame span records to .bench_out/.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOADGEN_TIMEOUT_S = 170
# Address-space cap for the load generator and the daemon it starts: a runaway
# footprint fails the run instead of exhausting the host.
MEMORY_CAP_BYTES = 6 << 30


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "race2dd", "perfbench_loadgen"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    run_dir = os.path.join(".bench_run", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench_loadgen"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--daemon", os.path.join(build_dir, "race2dd"),
             "--run-dir", run_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=LOADGEN_TIMEOUT_S, preexec_fn=cap_memory)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = os.path.join(ROOT, run_dir, f"spans-{args.workload}.csv")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(out_dir, stem + "-spans.csv"))
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench_loadgen exited with {proc.returncode}")

    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    provenance = next(l["provenance"] for l in lines if "provenance" in l)
    provenance["why"] = next(w["why"] for w in spec["workloads"]
                             if w["name"] == args.workload)
    raw = next(l["result"] for l in lines if "result" in l)
    missing = [m["name"] for m in declared if m["name"] not in raw["metrics"]]
    if missing:
        sys.exit(f"metrics missing from the run: {missing}")
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
