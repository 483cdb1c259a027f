// Vector-clock and FastTrack baselines: unit semantics plus differential
// agreement with the suprema detector on the same event streams — and the
// space contrast (Θ(n)/location vs Θ(1)/location) they exist to demonstrate.
#include <gtest/gtest.h>

#include "baselines/fasttrack.hpp"
#include "baselines/naive.hpp"
#include "baselines/vector_clock.hpp"
#include "core/detector.hpp"
#include "runtime/listener.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

TEST(VClock, MergeTakesComponentwiseMax) {
  VClock a, b;
  a.set(0, 5);
  a.set(2, 1);
  b.set(0, 3);
  b.set(1, 7);
  a.merge(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 7u);
  EXPECT_EQ(a.get(2), 1u);
}

TEST(VClock, LeqSemantics) {
  VClock a, b;
  a.set(0, 2);
  b.set(0, 3);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  a.set(5, 1);  // component b lacks
  EXPECT_FALSE(a.leq(b));
}

template <typename Detector>
void feed_fork_write_write(Detector& det, bool join_before_second_write) {
  const TaskId root = det.on_root();
  const TaskId child = det.on_fork(root);
  det.on_write(child, 1);
  det.on_halt(child);
  if (join_before_second_write) det.on_join(root, child);
  det.on_write(root, 1);
  if (!join_before_second_write) det.on_join(root, child);
}

TEST(VectorClockDetector, FlagsConcurrentWrites) {
  VectorClockDetector det;
  feed_fork_write_write(det, false);
  EXPECT_TRUE(det.race_found());
}

TEST(VectorClockDetector, JoinOrdersWrites) {
  VectorClockDetector det;
  feed_fork_write_write(det, true);
  EXPECT_FALSE(det.race_found());
}

TEST(FastTrackDetector, FlagsConcurrentWrites) {
  FastTrackDetector det;
  feed_fork_write_write(det, false);
  EXPECT_TRUE(det.race_found());
}

TEST(FastTrackDetector, JoinOrdersWrites) {
  FastTrackDetector det;
  feed_fork_write_write(det, true);
  EXPECT_FALSE(det.race_found());
}

TEST(FastTrackDetector, ConcurrentReadsPromoteToVector) {
  FastTrackDetector det;
  const TaskId root = det.on_root();
  const TaskId a = det.on_fork(root);
  det.on_read(a, 9);
  det.on_halt(a);
  det.on_read(root, 9);  // concurrent with a's read → promotion, no race
  EXPECT_FALSE(det.race_found());
  EXPECT_EQ(det.shared_read_promotions(), 1u);
  det.on_write(root, 9);  // unordered vs a's read → race
  EXPECT_TRUE(det.race_found());
}

TEST(FastTrackDetector, SameEpochReadIsFastPath) {
  FastTrackDetector det;
  const TaskId root = det.on_root();
  det.on_read(root, 5);
  det.on_read(root, 5);  // same epoch
  det.on_write(root, 5);
  EXPECT_FALSE(det.race_found());
  EXPECT_EQ(det.shared_read_promotions(), 0u);
}

// Drives any baseline detector from a recorded trace.
template <typename Detector>
void drive(Detector& det, const Trace& trace) {
  det.on_root();
  for (const TraceEvent& e : trace) ASSERT_TRUE(apply_event(det, e));
}

class BaselineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineAgreement, AllDetectorsAgreeOnVerdictAndFirstRace) {
  ProgramParams params;
  params.seed = GetParam() * 48271u + 3;
  params.max_actions = 20;
  params.max_depth = 5;
  params.max_tasks = 48;
  params.loc_pool = 10;

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

  EXPECT_EQ(suprema.race_found(), !gold.races.empty());
  EXPECT_EQ(vc.race_found(), !gold.races.empty());
  EXPECT_EQ(ft.race_found(), !gold.races.empty());
  if (!gold.races.empty()) {
    EXPECT_EQ(suprema.reporter().first().access_index,
              gold.races[0].access_index);
    EXPECT_EQ(vc.reporter().first().access_index, gold.races[0].access_index);
    EXPECT_EQ(ft.reporter().first().access_index, gold.races[0].access_index);
    EXPECT_EQ(vc.reporter().first().loc, gold.races[0].loc);
    EXPECT_EQ(ft.reporter().first().loc, gold.races[0].loc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineAgreement,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(SpaceContrast, VectorClockShadowGrowsWithTasksSupremaDoesNot) {
  auto build_trace = [](std::size_t tasks) {
    Trace t;
    for (TaskId c = 1; c <= tasks; ++c) {
      t.push_back({TraceOp::kFork, 0, c, 0});
      t.push_back({TraceOp::kRead, c, kInvalidTask, 7});
      t.push_back({TraceOp::kHalt, c, kInvalidTask, 0});
    }
    for (TaskId c = static_cast<TaskId>(tasks); c >= 1; --c)
      t.push_back({TraceOp::kJoin, 0, c, 0});
    t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
    return t;
  };

  OnlineRaceDetector sup_small, sup_large;
  VectorClockDetector vc_small, vc_large;
  drive(sup_small, build_trace(8));
  drive(sup_large, build_trace(8192));
  drive(vc_small, build_trace(8));
  drive(vc_large, build_trace(8192));
  ASSERT_FALSE(sup_large.race_found());
  ASSERT_FALSE(vc_large.race_found());

  const double sup_ratio =
      sup_large.footprint().shadow_bytes_per_location(1) /
      std::max(1.0, sup_small.footprint().shadow_bytes_per_location(1));
  const double vc_ratio =
      vc_large.footprint().shadow_bytes_per_location(1) /
      std::max(1.0, vc_small.footprint().shadow_bytes_per_location(1));
  // Ratios include the (constant) hash-table overhead shared by both, which
  // dilutes the VC growth; with 1024x more tasks the per-location read
  // vector still dominates by an order of magnitude.
  EXPECT_LE(sup_ratio, 1.5);   // Θ(1) per location
  EXPECT_GE(vc_ratio, 10.0);   // Θ(n) per location
}

}  // namespace
}  // namespace race2d
