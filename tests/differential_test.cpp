// Differential testing: the suprema detector vs the naive §2.3 gold
// reference (and the offline walks) on random structured programs and random
// lattice workloads. Soundness: race-free verdicts must agree exactly.
// Precision: the first reported race (access index and location) must agree.
#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/delayed_walk.hpp"
#include "core/detector.hpp"
#include "core/replay.hpp"
#include "lattice/generate.hpp"
#include "lattice/traversal.hpp"
#include "runtime/instrumented.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

struct RunOutcome {
  DetectionResult online;
  NaiveResult naive;
};

RunOutcome run_both(TaskBody program) {
  // One serial run records the trace while the online detector listens.
  TraceRecorder recorder;
  DetectorListener detecting;
  MultiListener fan;
  fan.add(&recorder);
  fan.add(&detecting);
  SerialExecutor exec(&fan);
  const std::size_t tasks = exec.run(std::move(program));

  RunOutcome out;
  out.online.races = detecting.detector().reporter().all();
  out.online.task_count = tasks;
  out.online.access_count = detecting.detector().access_count();
  out.naive = detect_races_naive(build_task_graph(recorder.trace()));
  return out;
}

void expect_agreement(const RunOutcome& out, std::uint64_t seed) {
  EXPECT_EQ(out.online.races.empty(), out.naive.races.empty())
      << "verdict mismatch, seed " << seed;
  if (!out.online.races.empty() && !out.naive.races.empty()) {
    // Precise up to the first race: same access exposes it, same location.
    EXPECT_EQ(out.online.races[0].access_index,
              out.naive.races[0].access_index)
        << "seed " << seed;
    EXPECT_EQ(out.online.races[0].loc, out.naive.races[0].loc)
        << "seed " << seed;
    EXPECT_EQ(out.online.races[0].current_kind, out.naive.races[0].current_kind)
        << "seed " << seed;
  }
}

class OnlineVsNaive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineVsNaive, RandomPrograms) {
  ProgramParams params;
  params.seed = GetParam();
  params.max_actions = 24;
  params.max_depth = 6;
  params.max_tasks = 64;
  params.loc_pool = 12;  // small pool: races frequent
  expect_agreement(run_both(random_program(params)), GetParam());
}

TEST_P(OnlineVsNaive, RandomProgramsSparseRaces) {
  ProgramParams params;
  params.seed = GetParam() * 2654435761u;
  params.max_actions = 20;
  params.max_depth = 5;
  params.max_tasks = 48;
  params.loc_pool = 4096;  // big pool: races rare, most runs race-free
  params.write_frac = 0.15;
  expect_agreement(run_both(random_program(params)), GetParam());
}

TEST_P(OnlineVsNaive, RaceFreeProgramsStayClean) {
  ProgramParams params;
  params.seed = GetParam() * 40503u + 7;
  params.max_actions = 24;
  params.max_depth = 6;
  params.max_tasks = 64;
  const RunOutcome out = run_both(race_free_program(params));
  EXPECT_TRUE(out.online.races.empty()) << "seed " << GetParam();
  EXPECT_TRUE(out.naive.races.empty()) << "seed " << GetParam();
}

TEST_P(OnlineVsNaive, RacyProgramsAlwaysCaught) {
  ProgramParams params;
  params.seed = GetParam() * 7877u + 13;
  params.max_actions = 16;
  params.max_depth = 5;
  params.max_tasks = 48;
  const Loc race_loc = 0xACE;
  const RunOutcome out = run_both(racy_program(params, race_loc));
  ASSERT_FALSE(out.online.races.empty()) << "seed " << GetParam();
  ASSERT_FALSE(out.naive.races.empty()) << "seed " << GetParam();
  EXPECT_EQ(out.online.races[0].loc, race_loc);
  expect_agreement(out, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineVsNaive,
                         ::testing::Range<std::uint64_t>(1, 33));

// Serial replay vs the offline walk over the materialized task graph, on
// EVERY report, not just the first. The walk reports vertex ids where replay
// reports task ids, so compare the shared coordinates: which access exposed
// the race, where, and against what kind of prior access.
class SerialVsOffline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialVsOffline, EveryReportMatchesTheWalk) {
  ProgramParams params;
  params.seed = GetParam();
  params.max_actions = 24;
  params.max_depth = 6;
  params.max_tasks = 64;
  params.loc_pool = 12;  // small pool: races frequent
  TraceRecorder recorder;
  SerialExecutor exec(&recorder);
  exec.run(random_program(params));
  const Trace& trace = recorder.trace();

  const std::vector<RaceReport> serial = detect_races_trace(trace);
  const TaskGraph tg = build_task_graph(trace);
  const std::vector<RaceReport> offline =
      detect_races_offline(tg.diagram, tg.ops, WalkMode::kNonSeparating);
  ASSERT_EQ(serial.size(), offline.size()) << "seed " << GetParam();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].access_index, offline[i].access_index)
        << "seed " << GetParam() << " report " << i;
    EXPECT_EQ(serial[i].loc, offline[i].loc)
        << "seed " << GetParam() << " report " << i;
    EXPECT_EQ(serial[i].current_kind, offline[i].current_kind)
        << "seed " << GetParam() << " report " << i;
    EXPECT_EQ(serial[i].prior_kind, offline[i].prior_kind)
        << "seed " << GetParam() << " report " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialVsOffline,
                         ::testing::Range<std::uint64_t>(1, 17));

// Offline detector (both walk modes) vs naive on random lattice diagrams
// with randomly attached accesses: contribution (b), language-independent.
class OfflineVsNaive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineVsNaive, RandomLatticeWorkloads) {
  Xoshiro256 rng(GetParam() * 6364136223846793005ULL + 1);
  ForkJoinParams fj;
  fj.max_actions = 18;
  fj.max_depth = 5;
  const Diagram d = random_fork_join_diagram(rng, fj);

  // Random accesses on a small pool, ~40% of vertices touch memory.
  std::vector<std::vector<VertexAccess>> ops(d.vertex_count());
  for (VertexId v = 0; v < d.vertex_count(); ++v) {
    if (!rng.chance(0.4)) continue;
    ops[v].push_back({rng.below(8),
                      rng.chance(0.4) ? AccessKind::kWrite : AccessKind::kRead});
  }

  const auto order = loop_order(non_separating_traversal(d));
  const NaiveResult gold = detect_races_naive(d, ops, order);
  for (WalkMode mode : {WalkMode::kNonSeparating, WalkMode::kDelayed,
                        WalkMode::kRuntimeDelayed}) {
    const auto races = detect_races_offline(d, ops, mode);
    EXPECT_EQ(races.empty(), gold.races.empty())
        << "seed " << GetParam() << " mode " << static_cast<int>(mode);
    if (!gold.races.empty() && !races.empty()) {
      EXPECT_EQ(races[0].access_index, gold.races[0].access_index)
          << "mode " << static_cast<int>(mode);
      EXPECT_EQ(races[0].loc, gold.races[0].loc)
          << "mode " << static_cast<int>(mode);
    }
  }
}

TEST_P(OfflineVsNaive, GridWorkloads) {
  Xoshiro256 rng(GetParam() * 104651u);
  const std::size_t rows = 2 + rng.below(5);
  const std::size_t cols = 2 + rng.below(6);
  const Diagram d = grid_diagram(rows, cols);
  std::vector<std::vector<VertexAccess>> ops(d.vertex_count());
  for (VertexId v = 0; v < d.vertex_count(); ++v)
    if (rng.chance(0.5))
      ops[v].push_back(
          {rng.below(6), rng.chance(0.5) ? AccessKind::kWrite
                                         : AccessKind::kRead});

  const auto order = loop_order(non_separating_traversal(d));
  const NaiveResult gold = detect_races_naive(d, ops, order);
  const auto exact = detect_races_offline(d, ops, WalkMode::kNonSeparating);
  EXPECT_EQ(exact.empty(), gold.races.empty()) << "seed " << GetParam();
  if (!gold.races.empty() && !exact.empty()) {
    EXPECT_EQ(exact[0].access_index, gold.races[0].access_index);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineVsNaive,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace race2d
