// Semantics of the Figure 6 detector: what counts as a race, report
// policies, first-race precision, and the documented On-Read correction
// (reads compare against W only — §2.3).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baselines/naive.hpp"
#include "composed_program.hpp"
#include "core/access_history.hpp"
#include "core/detector.hpp"
#include "core/replay.hpp"
#include "runtime/instrumented.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"

namespace race2d {
namespace {

constexpr Loc kX = 1;
constexpr Loc kY = 2;

TEST(DetectorSemantics, SequentialProgramNeverRaces) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.write(kX);
      ctx.read(kX);
    }
  });
  EXPECT_TRUE(result.race_free());
  EXPECT_EQ(result.access_count, 20u);
}

TEST(DetectorSemantics, ConcurrentReadsDoNotRace) {
  // Figure 6 as printed would flag read-read pairs; §2.3's text (and reality)
  // says reads race only with writes. Two unjoined readers are fine.
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) { c.read(kX); });
    ctx.read(kX);
    while (ctx.join_left()) {
    }
  });
  EXPECT_TRUE(result.race_free());
}

TEST(DetectorSemantics, ConcurrentWriteWriteRaces) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) { c.write(kX); });
    ctx.write(kX);
    while (ctx.join_left()) {
    }
  });
  ASSERT_EQ(result.races.size(), 1u);
  EXPECT_EQ(result.races[0].current_kind, AccessKind::kWrite);
  EXPECT_EQ(result.races[0].prior_kind, AccessKind::kWrite);
}

TEST(DetectorSemantics, ConcurrentReadThenWriteRaces) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) { c.read(kX); });
    ctx.write(kX);
    while (ctx.join_left()) {
    }
  });
  ASSERT_EQ(result.races.size(), 1u);
  EXPECT_EQ(result.races[0].prior_kind, AccessKind::kRead);
}

TEST(DetectorSemantics, ConcurrentWriteThenReadRaces) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) { c.write(kX); });
    ctx.read(kX);
    while (ctx.join_left()) {
    }
  });
  ASSERT_EQ(result.races.size(), 1u);
  EXPECT_EQ(result.races[0].current_kind, AccessKind::kRead);
  EXPECT_EQ(result.races[0].prior_kind, AccessKind::kWrite);
}

TEST(DetectorSemantics, JoinOrdersAccesses) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    auto h = ctx.fork([](TaskContext& c) { c.write(kX); });
    ctx.join(h);
    ctx.write(kX);  // ordered after the child's write
    ctx.read(kX);
  });
  EXPECT_TRUE(result.race_free());
}

TEST(DetectorSemantics, DistinctLocationsIndependent) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) { c.write(kX); });
    ctx.write(kY);  // different location: no race
    while (ctx.join_left()) {
    }
  });
  EXPECT_TRUE(result.race_free());
  EXPECT_EQ(result.tracked_locations, 2u);
}

TEST(DetectorSemantics, TransitiveOrderingThroughSibling) {
  // Figure 2's B-D pattern across tasks: a's write is ordered before the
  // root's read because the root joined c which joined a.
  const auto result = run_with_detection([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) { c.write(kX); });
    auto c = ctx.fork([a](TaskContext& cc) { cc.join(a); });
    ctx.join(c);
    ctx.read(kX);
  });
  EXPECT_TRUE(result.race_free());
}

TEST(DetectorSemantics, FirstOnlyPolicyStopsRecording) {
  const auto result = run_with_detection(
      [](TaskContext& ctx) {
        ctx.fork([](TaskContext& c) {
          c.write(kX);
          c.write(kY);
        });
        ctx.write(kX);
        ctx.write(kY);
        while (ctx.join_left()) {
        }
      },
      ReportPolicy::kFirstOnly);
  EXPECT_EQ(result.races.size(), 1u);
}

TEST(DetectorSemantics, AllPolicyRecordsBothLocations) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) {
      c.write(kX);
      c.write(kY);
    });
    ctx.write(kX);
    ctx.write(kY);
    while (ctx.join_left()) {
    }
  });
  EXPECT_EQ(result.races.size(), 2u);
}

TEST(DetectorSemantics, GrandchildConcurrency) {
  // A grandchild's write is concurrent with the root's until joined
  // transitively.
  const auto result = run_with_detection([](TaskContext& ctx) {
    ctx.fork([](TaskContext& c) {
      auto g = c.fork([](TaskContext& gc) { gc.write(kX); });
      c.join(g);
    });
    ctx.write(kX);
    while (ctx.join_left()) {
    }
  });
  ASSERT_EQ(result.races.size(), 1u);
}

TEST(DetectorSemantics, GrandchildOrderedAfterFullJoin) {
  const auto result = run_with_detection([](TaskContext& ctx) {
    auto h = ctx.fork([](TaskContext& c) {
      auto g = c.fork([](TaskContext& gc) { gc.write(kX); });
      c.join(g);
    });
    ctx.join(h);
    ctx.write(kX);
  });
  EXPECT_TRUE(result.race_free());
}

TEST(DetectorSemantics, RaceReportPrinting) {
  RaceReport r{0xbeef, 3, AccessKind::kWrite, AccessKind::kRead, 17};
  const std::string s = to_string(r);
  EXPECT_NE(s.find("beef"), std::string::npos);
  EXPECT_NE(s.find("write"), std::string::npos);
  EXPECT_NE(s.find("task 3"), std::string::npos);
}

TEST(DetectorSemantics, OrderedBeforeQuery) {
  OnlineRaceDetector det;
  const TaskId root = det.on_root();
  const TaskId child = det.on_fork(root);
  // While the child runs (fork-first), the fork point orders root ⊑ child.
  EXPECT_TRUE(det.ordered_before(root, child));
  det.on_halt(child);
  // Root resumes: the halted, unjoined child is concurrent with it.
  EXPECT_FALSE(det.ordered_before(child, root));
  det.on_join(root, child);
  EXPECT_TRUE(det.ordered_before(child, root));
}

TEST(DetectorSemantics, FootprintIsConstantPerLocation) {
  // The Theorem 5 claim in miniature: shadow bytes per location do not grow
  // with the number of tasks.
  auto measure = [](std::size_t tasks) {
    OnlineRaceDetector det;
    const TaskId root = det.on_root();
    std::vector<TaskId> children;
    for (std::size_t i = 0; i < tasks; ++i) {
      const TaskId c = det.on_fork(root);
      det.on_write(c, static_cast<Loc>(i % 16));
      det.on_halt(c);
      children.push_back(c);
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it)
      det.on_join(root, *it);
    return det.footprint().shadow_bytes_per_location(det.tracked_locations());
  };
  const double small = measure(16);
  const double large = measure(4096);
  EXPECT_LE(large, small * 2.0);  // flat, modulo hash-table rounding
}

// The shadow cell is three ids, so a hash slot (key, cell, occupied flag)
// is 24 bytes; at the table's lowest load after a doubling (5/16) that is
// 76.8 bytes per location. Each task costs the DSU 10 bytes (parent, rank,
// label, visited), at most 20 with its vectors' doubling slack. Both are
// checked along one long composed program, with no timing.
TEST(DetectorSemantics, ShadowAndPerTaskBytesStaySmall) {
  EXPECT_EQ(sizeof(ShadowCell), 12u);
  constexpr std::size_t kPoints[] = {10'000, 100'000, 1'000'000};
  const Trace trace = composed_program(2026, ~std::size_t{0}, kPoints[2]);
  ASSERT_GE(trace.size(), kPoints[2]);
  OnlineRaceDetector det;
  det.on_root();
  std::size_t point = 0;
  for (std::size_t i = 0; i < trace.size() && point < 3; ++i) {
    apply_event(det, trace[i]);
    if (i + 1 != kPoints[point]) continue;
    const MemoryFootprint f = det.footprint();
    EXPECT_LE(f.shadow_bytes_per_location(det.tracked_locations()), 76.8)
        << "after " << kPoints[point] << " events";
    EXPECT_LE(static_cast<double>(f.per_task_bytes) /
                  static_cast<double>(det.task_count()),
              20.0)
        << "after " << kPoints[point] << " events";
    ++point;
  }
  EXPECT_EQ(point, 3u);
}

// --- owner-epoch fast path -------------------------------------------------
// The cache holds one task id per cell and no version: a verdict cached by
// t stays valid across t's own structural events, and any other task's
// access replaces it.

using TraceDriver = std::vector<RaceReport> (*)(const Trace&, ReportPolicy,
                                                LintGate);
constexpr TraceDriver kDrivers[] = {detect_races_trace,
                                    detect_races_trace_depa};

/// A report without its task: the naive oracle names task-graph vertices.
using ReportKey = std::tuple<Loc, std::size_t, AccessKind, AccessKind>;
std::vector<ReportKey> keys(const std::vector<RaceReport>& reports) {
  std::vector<ReportKey> out;
  for (const RaceReport& r : reports)
    out.emplace_back(r.loc, r.access_index, r.current_kind, r.prior_kind);
  return out;
}

TEST(EpochCache, OwnerVerdictSurvivesItsChildrensStructure) {
  // Owners' accesses to 0x10 separated by their children's forks, halts
  // and joins. Comments give each access's expected verdict.
  const Trace trace = parse_trace_text(
      "write 0 10\n"
      "fork 0 1\n"
      "read 1 20\n"
      "halt 1\n"
      "write 0 10\n"  // owner 0 across child 1's fork and halt: clean
      "join 0 1\n"
      "write 0 10\n"  // owner 0 across the join: clean
      "fork 0 2\n"
      "write 2 10\n"  // ordered after 0's writes by the fork: owner 2
      "halt 2\n"
      "read 0 10\n"   // 2 is unjoined: read-write race
      "join 0 2\n"
      "read 0 10\n"   // ordered now: owner 0
      "fork 0 3\n"
      "halt 3\n"
      "join 0 3\n"
      "write 0 10\n"  // owner 0 across child 3's whole life: clean
      "fork 0 4\n"
      "fork 4 5\n"
      "write 5 30\n"
      "halt 5\n"
      "join 4 5\n"
      "write 4 10\n"  // owner 4
      "fork 4 6\n"
      "halt 6\n"
      "join 4 6\n"
      "write 4 10\n"  // owner 4 across its child's life: clean
      "halt 4\n"
      "read 0 10\n"   // 4 is unjoined: read-write race
      "join 0 4\n"
      "write 0 10\n"  // clean
      "fork 0 7\n"
      "write 7 10\n"  // owner 7
      "halt 7\n"
      "write 0 10\n"  // 7 is unjoined: write-write race
      "join 0 7\n"
      "halt 0\n");
  const std::vector<RaceReport> dsu = detect_races_trace(trace);
  ASSERT_EQ(dsu.size(), 3u);
  EXPECT_EQ(dsu[0].current_kind, AccessKind::kRead);
  EXPECT_EQ(dsu[1].current_kind, AccessKind::kRead);
  EXPECT_EQ(dsu[2].prior_kind, AccessKind::kWrite);
  EXPECT_EQ(detect_races_trace_depa(trace), dsu);
  EXPECT_EQ(keys(detect_races_naive(build_task_graph(trace)).races),
            keys(dsu));
}

TEST(EpochCache, JoinInvalidatesCachedVerdicts) {
  // Task 0 races with its (already halted, not yet joined) child on the
  // first read, then joins it. The racing read cached nothing, so the
  // re-access after the join re-queries: the race is ordered away, so
  // exactly ONE report total.
  const Trace trace = {
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kWrite, 1, kInvalidTask, 0x10},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kRead, 0, kInvalidTask, 0x10},   // access 2: races with write
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kRead, 0, kInvalidTask, 0x10},   // ordered now: no report
      {TraceOp::kWrite, 0, kInvalidTask, 0x10},  // ordered now: no report
      {TraceOp::kHalt, 0, kInvalidTask, 0},
  };
  for (const TraceDriver detect : kDrivers) {
    const auto races = detect(trace, ReportPolicy::kAll, LintGate::kEnforce);
    ASSERT_EQ(races.size(), 1u);
    EXPECT_EQ(races[0].access_index, 2u);
    EXPECT_EQ(races[0].loc, 0x10u);
    EXPECT_EQ(races[0].current_kind, AccessKind::kRead);
    EXPECT_EQ(races[0].prior_kind, AccessKind::kWrite);
  }
}

TEST(EpochCache, RepeatedSameTaskAccessesStayExact) {
  // A task hammering one location (the fast path's target pattern) must
  // report exactly what serial logic reports: nothing when ordered,
  // every racing access when not.
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([](TaskContext& ctx) {
    for (int i = 0; i < 100; ++i) ctx.write(0x7);   // same-task: clean
    auto child = ctx.fork([](TaskContext& c) {
      for (int i = 0; i < 50; ++i) c.read(0x7);     // racy reads vs parent?
    });
    ctx.join(child);
    for (int i = 0; i < 100; ++i) ctx.read(0x7);    // ordered after join
  });
  const Trace& trace = rec.trace();
  for (const ReportPolicy policy :
       {ReportPolicy::kAll, ReportPolicy::kFirstOnly}) {
    EXPECT_EQ(detect_races_trace_depa(trace, policy),
              detect_races_trace(trace, policy));
  }
  // Child reads are ordered after the parent's writes (fork order), and
  // post-join accesses are ordered after everything: race-free overall.
  EXPECT_TRUE(detect_races_trace(trace).empty());
}

}  // namespace
}  // namespace race2d
