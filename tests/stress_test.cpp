// Broad randomized stress: many seeds, larger programs, all detectors on
// identical traces, verdict + first-race agreement against the naive gold
// reference. Complements differential_test with scale rather than breadth
// of configurations.
#include <gtest/gtest.h>

#include "baselines/fasttrack.hpp"
#include "baselines/naive.hpp"
#include "baselines/vector_clock.hpp"
#include "core/detector.hpp"
#include "runtime/instrumented.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace race2d {
namespace {

template <typename Detector>
void drive(Detector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace) apply_event(det, e);
}

TEST(Stress, ManySeedsAllDetectorsAgree) {
  int racy_runs = 0;
  int clean_runs = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    ProgramParams params;
    params.seed = seed * 6700417u + 1;
    params.max_actions = 18;
    params.max_depth = 5;
    params.max_tasks = 40;
    params.loc_pool = 4 + seed % 40;  // vary contention across runs
    params.write_frac = 0.1 + 0.5 * static_cast<double>(seed % 7) / 7.0;

    TraceRecorder rec;
    SerialExecutor exec(&rec);
    exec.run(random_program(params));
    const Trace& trace = rec.trace();

    OnlineRaceDetector suprema;
    VectorClockDetector vc;
    FastTrackDetector ft;
    drive(suprema, trace);
    drive(vc, trace);
    drive(ft, trace);
    const NaiveResult gold = detect_races_naive(build_task_graph(trace));

    const bool has_race = !gold.races.empty();
    (has_race ? racy_runs : clean_runs) += 1;
    ASSERT_EQ(suprema.race_found(), has_race) << "seed " << seed;
    ASSERT_EQ(vc.race_found(), has_race) << "seed " << seed;
    ASSERT_EQ(ft.race_found(), has_race) << "seed " << seed;
    if (has_race) {
      ASSERT_EQ(suprema.reporter().first().access_index,
                gold.races[0].access_index)
          << "seed " << seed;
      ASSERT_EQ(suprema.reporter().first().loc, gold.races[0].loc)
          << "seed " << seed;
    }
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(racy_runs, 10);
  EXPECT_GT(clean_runs, 10);
}

TEST(Stress, LargeTaskCountsStayLinear) {
  // A 4000-task program: the detector's per-task state is Θ(1), so this
  // must complete quickly and agree with itself run-to-run.
  ProgramParams params;
  params.seed = 99;
  params.max_actions = 40;
  params.max_depth = 4000;
  params.max_tasks = 4000;
  params.fork_prob = 0.45;
  params.loc_pool = 512;

  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(random_program(params));
  const Trace& trace = rec.trace();

  OnlineRaceDetector first, second;
  drive(first, trace);
  drive(second, trace);
  EXPECT_GT(first.task_count(), 1000u);
  EXPECT_EQ(first.race_found(), second.race_found());
  EXPECT_EQ(first.reporter().count(), second.reporter().count());
}

TEST(Stress, DeepPipelineUnderDetection) {
  StagedPipeline p(24, 24, /*work_per_cell=*/1);
  const auto result = run_with_detection(p.task());
  EXPECT_TRUE(result.race_free());
  EXPECT_EQ(result.task_count, 1u + 23u * 24u);
}

TEST(Stress, WideFanWithSharedReads) {
  // 2000 siblings reading one location then a post-join write: exercises
  // both the read-sup folding and the final ordered write.
  const auto result = run_with_detection([](TaskContext& ctx) {
    for (int i = 0; i < 2000; ++i)
      ctx.fork([](TaskContext& c) { c.read(5); });
    while (ctx.join_left()) {
    }
    ctx.write(5);
  });
  EXPECT_TRUE(result.race_free());
  EXPECT_EQ(result.task_count, 2001u);
}

TEST(Stress, FibDifferentialAgainstNaive) {
  for (unsigned n : {6u, 8u, 10u}) {
    for (bool racy : {false, true}) {
      FibWorkload fib(n, racy);
      TraceRecorder rec;
      SerialExecutor exec(&rec);
      exec.run(fib.task());
      OnlineRaceDetector det;
      drive(det, rec.trace());
      const NaiveResult gold = detect_races_naive(build_task_graph(rec.trace()));
      ASSERT_EQ(det.race_found(), !gold.races.empty())
          << "n=" << n << " racy=" << racy;
      ASSERT_EQ(det.race_found(), racy) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace race2d
