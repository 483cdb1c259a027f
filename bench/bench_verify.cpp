// E9 — verification-layer overhead: the TraceLinter's single pass vs the
// serial replay it gates, the gated vs ungated detect_races_trace driver
// (the end-to-end cost of lint-on-load), and certificate construction /
// checking on a racy workload. The linter is O(n·α)-free — pure O(n) with
// a task-line vector and one hash lookup per access — so its cost should be
// a small fraction of replay (which pays union-find suprema per access).
#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_common.hpp"
#include "core/replay.hpp"
#include "verify/certificate.hpp"
#include "verify/trace_lint.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace race2d;

const Trace& fork_heavy_trace() {
  static const Trace trace = [] {
    ProgramParams params;
    params.seed = 9;
    params.max_tasks = 2048;
    params.max_actions = 32;
    params.fork_prob = 0.4;
    return benchutil::record(random_program(params));
  }();
  return trace;
}

void BM_LintTrace(benchmark::State& state) {
  const Trace& trace = fork_heavy_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lint_trace(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["events"] = static_cast<double>(trace.size());
}
BENCHMARK(BM_LintTrace);

void BM_SerialReplayUngated(benchmark::State& state) {
  const Trace& trace = fork_heavy_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect_races_trace(trace, ReportPolicy::kAll, LintGate::kSkip));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SerialReplayUngated);

void BM_SerialReplayGated(benchmark::State& state) {
  const Trace& trace = fork_heavy_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect_races_trace(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SerialReplayGated);

const Trace& racy_trace() {
  static const Trace trace = [] {
    ProgramParams params;
    params.seed = 3;
    params.max_tasks = 256;
    return benchutil::record(racy_program(params, 0xBEEF));
  }();
  return trace;
}

void BM_CertifierBuild(benchmark::State& state) {
  const Trace& trace = racy_trace();
  for (auto _ : state) {
    CertificateChecker checker(trace);
    benchmark::DoNotOptimize(checker.access_count());
  }
}
BENCHMARK(BM_CertifierBuild);

void BM_CertifyAndCheckFirstRace(benchmark::State& state) {
  const Trace& trace = racy_trace();
  const auto reports = detect_races_trace(trace, ReportPolicy::kFirstOnly);
  const CertificateChecker checker(trace);
  for (auto _ : state) {
    const CertifiedReport cr = checker.certify(reports.front());
    benchmark::DoNotOptimize(checker.check(cr.certificate).ok);
  }
}
BENCHMARK(BM_CertifyAndCheckFirstRace);

}  // namespace
