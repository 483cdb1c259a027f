// E13 — serial online detection and the per-query cost of the two engines
// on one access-heavy fork-tree workload. items_per_second is ACCESSES per
// second in every benchmark here, so the rows divide directly.
//
// BM_SerialOnlineDetect runs the program on the serial executor with the
// DSU detector attached. The replay pair feeds one recorded trace through
// the DSU detector (sup() queries against shared suprema) and through
// DePaDetector (two integer tag compares against a cell's maxima pair).
// scripts/bench.sh gates BM_SerialOnlineDetect and BM_DepaSerialReplay
// against their checked-in baselines.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "core/depa_detector.hpp"
#include "core/replay.hpp"
#include "runtime/instrumented.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"

namespace {

using namespace race2d;

// Detection-bound fork tree: every leaf hammers a small shared pool plus
// a private slot, so the work IS the detector, not the task bodies.
constexpr std::size_t kWidth = 32;    // children under the root
constexpr std::size_t kReps = 2000;   // accesses loops per child
constexpr std::size_t kShared = 64;   // shared locations (mostly clean)
constexpr std::size_t kAccesses = kWidth * kReps * 3;

TaskBody detect_workload() {
  return [](TaskContext& ctx) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      ctx.fork([i](TaskContext& t) {
        for (std::size_t r = 0; r < kReps; ++r) {
          t.read(0x5000 + ((i * 17 + r) % kShared));
          t.write(0x9000 + i * kReps + r);
          t.read(0x5000 + ((i + r * 13) % kShared));
        }
      });
    }
    while (ctx.join_left()) {
    }
  };
}

Trace recorded_workload() {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(detect_workload());
  return rec.take();
}

/// Baseline: serial executor + serial DSU detector (the Figure-6 engine).
void BM_SerialOnlineDetect(benchmark::State& state) {
  for (auto _ : state) {
    DetectionResult r = run_with_detection(detect_workload());
    benchmark::DoNotOptimize(r.access_count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccesses));
  state.counters["accesses"] = static_cast<double>(kAccesses);
}
BENCHMARK(BM_SerialOnlineDetect)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Per-query comparison, DSU side: replay one recorded trace through the
/// suprema-based detector (sup() against shared suprema per access).
void BM_DsuSerialReplay(benchmark::State& state) {
  const Trace trace = recorded_workload();
  for (auto _ : state) {
    std::vector<RaceReport> reports = detect_races_trace(trace);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccesses));
}
BENCHMARK(BM_DsuSerialReplay)->Unit(benchmark::kMillisecond);

/// Per-query comparison, tag side: the same trace through DePaDetector
/// (two integer tag compares against the cell's maxima pair).
void BM_DepaSerialReplay(benchmark::State& state) {
  const Trace trace = recorded_workload();
  for (auto _ : state) {
    std::vector<RaceReport> reports = detect_races_trace_depa(trace);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccesses));
}
BENCHMARK(BM_DepaSerialReplay)->Unit(benchmark::kMillisecond);

}  // namespace
