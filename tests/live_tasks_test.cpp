// Θ(1) state per live task: the LiveTaskIndex behind both per-task tables,
// the DSU detector's compaction passes and the lint gate's dropped rows.
// The fuzz panel's traces stay below LiveTaskIndex::kCompactionFloor, so
// these tests drive long programs through many passes and check that
// reports, snapshot round trips and L-messages do not change.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "composed_program.hpp"
#include "core/detector.hpp"
#include "core/replay.hpp"
#include "io/binary_writer.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "support/live_tasks.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {
namespace {

constexpr std::uint32_t kNoRow = LiveTaskIndex::kNoRow;

TEST(LiveTaskIndex, RowsFollowIdsAcrossCompactions) {
  LiveTaskIndex index;
  for (TaskId id = 0; id < 10; ++id) EXPECT_EQ(index.add(), id);
  EXPECT_EQ(index.rows(), 10u);
  EXPECT_EQ(index.row(7), 7u);
  EXPECT_EQ(index.row(10), kNoRow);

  // Keep the even ids: they become carried, in order.
  const std::vector<std::uint32_t> remap =
      index.compact([](std::uint32_t row) { return row % 2 == 0; });
  EXPECT_EQ(remap, (std::vector<std::uint32_t>{0, kNoRow, 1, kNoRow, 2, kNoRow,
                                               3, kNoRow, 4, kNoRow}));
  EXPECT_EQ(index.task_count(), 10u);
  EXPECT_EQ(index.rows(), 5u);
  for (TaskId id = 0; id < 10; ++id)
    EXPECT_EQ(index.row(id), id % 2 == 0 ? id / 2 : kNoRow) << id;

  // New ids follow the carried rows by offset.
  EXPECT_EQ(index.add(), 10u);
  EXPECT_EQ(index.row(10), 5u);
  EXPECT_EQ(index.id_at(5), 10u);
  EXPECT_EQ(index.id_at(2), 4u);

  LiveTaskIndex copy;
  copy.import_state(index.export_state());
  for (TaskId id = 0; id < 12; ++id) EXPECT_EQ(copy.row(id), index.row(id));
  EXPECT_THROW(copy.import_state({4, 5, {}}), ContractViolation);
  EXPECT_THROW(copy.import_state({8, 4, {2, 1}}), ContractViolation);
  EXPECT_THROW(copy.import_state({8, 4, {4}}), ContractViolation);
}

// Composed programs of 4·10⁵ events fork about 4·10⁴ tasks while touching
// a few thousand locations, so the detector compacts ten times or more.
constexpr std::uint64_t kProgramSeeds[] = {11, 23, 42, 77, 2026, 31337};
constexpr std::size_t kProgramEvents = 400'000;

Trace long_program(std::uint64_t seed) {
  return composed_program(seed, ~std::size_t{0}, kProgramEvents);
}

// DePa keeps every task, so it is the exact oracle for a detector that
// forgets joined ones.
TEST(Compaction, LongProgramsMatchDePaAcrossTenPasses) {
  std::size_t races = 0;
  for (const std::uint64_t seed : kProgramSeeds) {
    const Trace trace = long_program(seed);
    ASSERT_GE(trace.size(), kProgramEvents);
    OnlineRaceDetector det;
    det.on_root();
    for (const TraceEvent& e : trace) ASSERT_TRUE(apply_event(det, e));
    EXPECT_GE(det.compactions(), 10u) << "seed " << seed;
    const std::vector<RaceReport> depa = detect_races_trace_depa(trace);
    EXPECT_EQ(det.reporter().all(), depa) << "seed " << seed;
    EXPECT_EQ(detect_races_trace(trace), depa) << "seed " << seed;
    races += depa.size();
  }
  EXPECT_GT(races, 0u);
}

// The same programs through a session that is snapshotted and restored
// every 64 frames, so restores land between and across passes.
TEST(Compaction, SessionsRestoredEvery64FramesMatchDePa) {
  constexpr std::size_t kFrame = 1024;
  for (const std::uint64_t seed : kProgramSeeds) {
    const Trace trace = long_program(seed);
    const std::string wire = trace_to_binary(trace);
    auto session = std::make_unique<DetectionSession>(ReportPolicy::kAll,
                                                      std::size_t{1} << 20);
    std::vector<RaceReport> got;
    std::size_t restores = 0;
    for (std::size_t off = 0, frame = 1; off < wire.size();
         off += kFrame, ++frame) {
      const DetectionSession::FeedOutcome fed =
          session->feed(wire.substr(off, kFrame));
      ASSERT_EQ(fed.status, ServiceStatus::kOk) << fed.message;
      bool more = false;
      const std::vector<RaceReport> drained = session->drain(0, more);
      got.insert(got.end(), drained.begin(), drained.end());
      if (frame % 64 == 0) {
        RestoreOutcome restored =
            restore_session(snapshot_session(*session, std::size_t{1} << 30));
        ASSERT_NE(restored.session, nullptr) << restored.error;
        session = std::move(restored.session);
        ++restores;
      }
    }
    EXPECT_TRUE(session->close().complete) << "seed " << seed;
    EXPECT_GE(restores, 10u);
    EXPECT_EQ(got, detect_races_trace_depa(trace)) << "seed " << seed;
  }
}

// --- the lint gate ---------------------------------------------------------

/// `n` children of the root, one after another: each is forked, writes,
/// halts and is joined before the next is forked.
Trace sequential_children(std::size_t n) {
  Trace t;
  for (TaskId c = 1; c <= n; ++c) {
    t.push_back({TraceOp::kFork, 0, c, 0});
    t.push_back({TraceOp::kWrite, c, kInvalidTask, 0x100 + c % 64});
    t.push_back({TraceOp::kHalt, c, kInvalidTask, 0});
    t.push_back({TraceOp::kJoin, 0, c, 0});
  }
  return t;
}

struct LateFault {
  const char* what;
  Trace trace;
  const char* golden;  ///< to_string of the full result, warnings on or off
};

/// Faults after 5 000 sequential children. By then the gate has dropped
/// the rows of the first 4 095 children (task 7 among them) and still
/// holds joined rows for the later ones (task 4990). The goldens are the
/// messages of the linter that kept a row for every task.
std::vector<LateFault> late_faults() {
  const Trace base = sequential_children(5000);
  const auto with = [&base](Trace tail) {
    Trace t = base;
    t.insert(t.end(), tail.begin(), tail.end());
    t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
    return t;
  };
  const TraceEvent halt_root{TraceOp::kHalt, 0, kInvalidTask, 0};
  Trace dropped_joins;
  for (const TraceEvent& e : base)
    if (!(e.op == TraceOp::kJoin && (e.other == 3 || e.other == 4000)))
      dropped_joins.push_back(e);
  dropped_joins.push_back(halt_root);
  return {
      {"read by a dropped task",
       with({{TraceOp::kRead, 7, kInvalidTask, 0x10}}),
       "L002 actor-halted at event 20000: read by task 7, which already "
       "halted (hint: no events may follow a task's halt)\n"},
      {"read by a joined task with a row",
       with({{TraceOp::kRead, 4990, kInvalidTask, 0x10}}),
       "L002 actor-halted at event 20000: read by task 4990, which already "
       "halted (hint: no events may follow a task's halt)\n"},
      {"join by a dropped task", with({{TraceOp::kJoin, 7, 4990, 0}}),
       "L002 actor-halted at event 20000: join by task 7, which already "
       "halted (hint: no events may follow a task's halt)\n"},
      {"halt of a dropped task", with({{TraceOp::kHalt, 7, kInvalidTask, 0}}),
       "L003 double-halt at event 20000: task 7 halts twice (hint: drop the "
       "duplicate halt)\n"},
      {"fork of a dropped id", with({{TraceOp::kFork, 0, 7, 0}}),
       "L004 fork-child-collision at event 20000: fork by task 0 "
       "re-introduces task 7 (hint: each task id may be forked exactly "
       "once)\n"},
      {"finish_begin by a dropped task",
       with({{TraceOp::kFinishBegin, 7, kInvalidTask, 0}}),
       "L002 actor-halted at event 20000: finish_begin by task 7, which "
       "already halted (hint: no events may follow a task's halt)\n"},
      {"double join of a dropped task", with({{TraceOp::kJoin, 0, 7, 0}}),
       "L010 join-target-already-joined at event 20000: task 0 joins task 7, "
       "which was already joined (hint: each task is joined exactly once)\n"},
      {"double join of a joined task with a row",
       with({{TraceOp::kJoin, 0, 4990, 0}}),
       "L010 join-target-already-joined at event 20000: task 0 joins task "
       "4990, which was already joined (hint: each task is joined exactly "
       "once)\n"},
      {"read by an unknown task",
       with({{TraceOp::kRead, 6000, kInvalidTask, 0x10}}),
       "L001 unknown-actor at event 20000: read by unknown task 6000 (only "
       "5001 task(s) introduced so far) (hint: every task id must first "
       "appear as a fork's child)\n"},
      {"fork of a sparse id", with({{TraceOp::kFork, 0, 6000, 0}}),
       "L005 fork-child-not-dense at event 20000: fork by task 0 introduces "
       "child 6000 but the next dense id is 5001 (hint: task ids are dense "
       "in fork order (root is 0))\n"},
      {"dropped joins", dropped_joins,
       "L013 unjoined-task at event 19999: task 3 was never joined; the task "
       "graph has multiple sinks (Theorem 6 needs the root to join all) "
       "(hint: join every forked task before the root halts)\n"
       "L013 unjoined-task at event 19999: task 4000 was never joined; the "
       "task graph has multiple sinks (Theorem 6 needs the root to join "
       "all) (hint: join every forked task before the root halts)\n"},
  };
}

TEST(Compaction, LateFaultsNameLongJoinedTasksVerbatim) {
  for (const LateFault& fault : late_faults()) {
    for (const bool warnings : {true, false}) {
      TraceLintOptions options;
      options.warnings = warnings;
      EXPECT_EQ(to_string(TraceLinter(options).run(fault.trace)), fault.golden)
          << fault.what << (warnings ? " (warnings on)" : " (warnings off)");
    }
  }
}

// --- bytes, with no timing -------------------------------------------------

// 10⁵ sequential children keep a line of two tasks. The lint gate holds at
// most kCompactionFloor rows of 16 bytes; the DSU at most about
// kCompactionFloor slots of 10 bytes, since the 64 written cells and the
// line are far fewer. Both bounds hold for any number of children; a table
// indexed by task id needs 1.6 MB and 1 MB.
TEST(Compaction, PerTaskBytesStayBoundedOverSequentialChildren) {
  constexpr std::size_t kFloor = std::size_t{1} << 12;
  Trace trace = sequential_children(100'000);
  trace.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  TraceLintOptions gate;
  gate.warnings = false;
  TraceLintStream lint(gate);
  OnlineRaceDetector det;
  det.on_root();
  for (const TraceEvent& e : trace) {
    ASSERT_TRUE(lint.feed(e));
    ASSERT_TRUE(apply_event(det, e));
  }
  lint.finish();
  EXPECT_TRUE(lint.ok_so_far());
  EXPECT_EQ(det.task_count(), 100'001u);
  EXPECT_LE(lint.memory_bytes(), 24 * kFloor);
  EXPECT_LE(det.footprint().per_task_bytes, 24 * kFloor);
}

}  // namespace
}  // namespace race2d
