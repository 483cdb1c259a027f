// The trace linter (stable L/W codes), the diagram/traversal linters
// (D/T codes), the lint gates on every detector entry point, and the
// corruption harness: systematic mutations of recorded traces must either
// be rejected with a typed diagnostic or replay identically on the DSU and
// DePa detectors — never crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_format.hpp"
#include "io/binary_reader.hpp"
#include "lattice/generate.hpp"
#include "lattice/traversal.hpp"
#include "lattice/validate.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "support/ids.hpp"
#include "runtime/trace_io.hpp"
#include "verify/graph_lint.hpp"
#include "verify/trace_lint.hpp"
#include "workloads/generators.hpp"

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

namespace race2d {
namespace {

Trace record(const TaskBody& body) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(body);
  return rec.take();
}

bool has_code(const LintResult& r, LintCode code) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [code](const LintDiagnostic& d) { return d.code == code; });
}

// Shorthand for handwritten traces.
TraceEvent fork(TaskId p, TaskId c) { return {TraceOp::kFork, p, c, 0}; }
TraceEvent join(TaskId p, TaskId c) { return {TraceOp::kJoin, p, c, 0}; }
TraceEvent halt(TaskId t) { return {TraceOp::kHalt, t, kInvalidTask, 0}; }
TraceEvent read(TaskId t, Loc l) { return {TraceOp::kRead, t, kInvalidTask, l}; }
TraceEvent write(TaskId t, Loc l) { return {TraceOp::kWrite, t, kInvalidTask, l}; }
TraceEvent retire(TaskId t, Loc l) { return {TraceOp::kRetire, t, kInvalidTask, l}; }
TraceEvent fbegin(TaskId t) { return {TraceOp::kFinishBegin, t, kInvalidTask, 0}; }
TraceEvent fend(TaskId t) { return {TraceOp::kFinishEnd, t, kInvalidTask, 0}; }
TraceEvent acq(TaskId t, Loc id) { return {TraceOp::kAcquire, t, kInvalidTask, id}; }
TraceEvent rel(TaskId t, Loc id) { return {TraceOp::kRelease, t, kInvalidTask, id}; }

TEST(TraceLint, CleanRecordedTracesLintClean) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProgramParams params;
    params.seed = seed;
    const LintResult r = lint_trace(record(random_program(params)));
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << to_string(r);
    EXPECT_EQ(r.warning_count(), 0u) << "seed " << seed;
  }
}

TEST(TraceLint, EmptyTraceIsTruncated) {
  const LintResult r = lint_trace({});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.first_error().code, LintCode::kTruncatedTrace);
}

TEST(TraceLint, UnknownActor) {
  const LintResult r = lint_trace({read(5, 0x1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kUnknownActor));
  EXPECT_EQ(r.diagnostics.front().index, 0u);
  EXPECT_STREQ(lint_code_id(LintCode::kUnknownActor), "L001");
}

TEST(TraceLint, EventByHaltedTask) {
  const LintResult r =
      lint_trace({fork(0, 1), halt(1), read(1, 0x1), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kActorHalted));
}

TEST(TraceLint, DoubleHalt) {
  const LintResult r =
      lint_trace({fork(0, 1), halt(1), halt(1), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kDoubleHalt));
}

TEST(TraceLint, ForkChildCollision) {
  const LintResult r = lint_trace(
      {fork(0, 1), halt(1), join(0, 1), fork(0, 1), halt(1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kForkChildCollision));
}

TEST(TraceLint, ForkChildNotDense) {
  const LintResult r = lint_trace({fork(0, 5), halt(5), join(0, 5), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kForkChildNotDense));
}

TEST(TraceLint, OutOfSerialOrder) {
  // The parent accesses memory while its freshly forked child runs.
  const LintResult r =
      lint_trace({fork(0, 1), read(0, 0x1), halt(1), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kOutOfSerialOrder));
  EXPECT_STREQ(lint_code_id(LintCode::kOutOfSerialOrder), "L006");
}

TEST(TraceLint, JoinTargetUnknown) {
  const LintResult r = lint_trace({join(0, 7), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kJoinTargetUnknown));
}

TEST(TraceLint, JoinTargetNotHalted) {
  const LintResult r = lint_trace({fork(0, 1), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kJoinTargetNotHalted));
}

TEST(TraceLint, JoinNotLeftNeighbor) {
  // Line after the two forks: {2, 1, 0}; 0's left neighbor is 1, not 2.
  const LintResult r = lint_trace({fork(0, 1), fork(1, 2), halt(2), halt(1),
                                   join(0, 2), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kJoinNotLeftNeighbor));
  const LintResult self = lint_trace({join(0, 0), halt(0)});
  EXPECT_TRUE(has_code(self, LintCode::kJoinNotLeftNeighbor));
}

TEST(TraceLint, JoinTargetAlreadyJoined) {
  const LintResult r = lint_trace(
      {fork(0, 1), halt(1), join(0, 1), join(0, 1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kJoinTargetJoined));
}

TEST(TraceLint, EventAfterRootHalt) {
  const LintResult r = lint_trace({halt(0), read(0, 0x1)});
  EXPECT_TRUE(has_code(r, LintCode::kEventAfterRootHalt));
}

TEST(TraceLint, TruncatedTrace) {
  const LintResult r = lint_trace({fork(0, 1), write(1, 0x1)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.first_error().code, LintCode::kTruncatedTrace);
  EXPECT_EQ(r.first_error().index, 2u);  // end-of-input finding
}

TEST(TraceLint, UnjoinedTask) {
  const LintResult r = lint_trace({fork(0, 1), halt(1), halt(0)});
  EXPECT_TRUE(has_code(r, LintCode::kUnjoinedTask));
}

TEST(TraceLint, UnbalancedFinish) {
  EXPECT_TRUE(has_code(lint_trace({fend(0), halt(0)}),
                       LintCode::kFinishEndUnbalanced));
  EXPECT_TRUE(
      has_code(lint_trace({fbegin(0), halt(0)}), LintCode::kFinishUnclosed));
  const LintResult balanced = lint_trace({fbegin(0), fork(0, 1), halt(1),
                                          join(0, 1), fend(0), halt(0)});
  EXPECT_TRUE(balanced.ok()) << to_string(balanced);
}

TEST(TraceLint, InvalidTaskIdSentinel) {
  EXPECT_TRUE(has_code(lint_trace({halt(kInvalidTask), halt(0)}),
                       LintCode::kInvalidTaskId));
  EXPECT_TRUE(has_code(lint_trace({fork(0, kInvalidTask), halt(0)}),
                       LintCode::kInvalidTaskId));
}

TEST(TraceLint, LockDisciplineCodes) {
  // L017: releasing a mutex NO task holds — including one the trace never
  // mentioned (an unknown lock id must produce a diagnostic, not a crash).
  const LintResult unheld = lint_trace({rel(0, 0xbeef), halt(0)});
  EXPECT_TRUE(has_code(unheld, LintCode::kReleaseWithoutAcquire));
  EXPECT_STREQ(lint_code_id(LintCode::kReleaseWithoutAcquire), "L017");

  // L018: only the holding task may release a mutex.
  const LintResult cross = lint_trace({acq(0, 0x10), fork(0, 1), rel(1, 0x10),
                                       halt(1), join(0, 1), rel(0, 0x10),
                                       halt(0)});
  EXPECT_TRUE(has_code(cross, LintCode::kCrossTaskRelease));
  EXPECT_STREQ(lint_code_id(LintCode::kCrossTaskRelease), "L018");

  // L019: halting while holding.
  const LintResult leak = lint_trace({acq(0, 0x10), halt(0)});
  EXPECT_TRUE(has_code(leak, LintCode::kUnreleasedAtHalt));
  EXPECT_STREQ(lint_code_id(LintCode::kUnreleasedAtHalt), "L019");

  // L020: mutexes are not reentrant; in serial order this blocks forever.
  const LintResult twice =
      lint_trace({acq(0, 0x10), acq(0, 0x10), rel(0, 0x10), halt(0)});
  EXPECT_TRUE(has_code(twice, LintCode::kDoubleAcquire));
  EXPECT_STREQ(lint_code_id(LintCode::kDoubleAcquire), "L020");

  // A balanced critical section (and a reacquire after release) is clean.
  const LintResult clean = lint_trace({acq(0, 0x10), write(0, 0x1),
                                       rel(0, 0x10), acq(0, 0x10),
                                       rel(0, 0x10), halt(0)});
  EXPECT_TRUE(clean.ok()) << to_string(clean);
}

TEST(TraceLint, SemaphoreHandOffSemantics) {
  const Loc sem = kSemaphoreBit | 0x2000;
  // Klein–Lu–Netzer hand-off: V in the parent, P in the child — legal even
  // though acquirer and releaser are different tasks.
  const LintResult handoff = lint_trace(
      {rel(0, sem), fork(0, 1), acq(1, sem), halt(1), join(0, 1), halt(0)});
  EXPECT_TRUE(handoff.ok()) << to_string(handoff);

  // P on a zero-count (or never-mentioned) semaphore blocks forever: L020.
  const LintResult blocked = lint_trace({acq(0, sem), halt(0)});
  EXPECT_TRUE(has_code(blocked, LintCode::kDoubleAcquire));

  // Counting: two V's fund two P's; a third P trips.
  const LintResult counted = lint_trace(
      {rel(0, sem), rel(0, sem), acq(0, sem), acq(0, sem), halt(0)});
  EXPECT_TRUE(counted.ok()) << to_string(counted);
  const LintResult overdrawn = lint_trace(
      {rel(0, sem), acq(0, sem), acq(0, sem), halt(0)});
  EXPECT_TRUE(has_code(overdrawn, LintCode::kDoubleAcquire));

  // Semaphores are never "held": halting after a P is not L019.
  const LintResult halt_after_p =
      lint_trace({rel(0, sem), acq(0, sem), halt(0)});
  EXPECT_FALSE(has_code(halt_after_p, LintCode::kUnreleasedAtHalt));
}

TEST(TraceLint, HaltReportsOnlyItsOwnHeldMutexes) {
  // Three tasks hold mutexes at once; task 2 halts holding three of them,
  // acquired out of id order, after taking and dropping a fourth. Its
  // halt reports exactly its three, sorted by id, and frees them; the
  // mutexes its ancestors hold stay theirs.
  const Trace t = {acq(0, 0x50),  fork(0, 1),    acq(1, 0x70),
                   fork(1, 2),    acq(2, 0x30),  acq(2, 0x10),
                   acq(2, 0x40),  rel(2, 0x40),  acq(2, 0x20),
                   halt(2),       join(1, 2),    acq(1, 0x10),
                   rel(1, 0x10),  rel(1, 0x70),  halt(1),
                   join(0, 1),    rel(0, 0x50),  halt(0)};
  const LintResult r = lint_trace(t);
  ASSERT_EQ(r.diagnostics.size(), 3u) << to_string(r);
  const char* const ids[] = {"0x10", "0x20", "0x30"};
  for (std::size_t k = 0; k < 3; ++k) {
    const LintDiagnostic& d = r.diagnostics[k];
    EXPECT_EQ(d.code, LintCode::kUnreleasedAtHalt);
    EXPECT_EQ(d.index, 9u);
    EXPECT_EQ(d.message,
              std::string("task 2 halts still holding mutex ") + ids[k]);
  }

  // The per-task held counts are derived state: a stream restored from an
  // export at any clean cut reports the same findings.
  TraceLintOptions options;
  for (std::size_t cut = 0; cut <= 9; ++cut) {
    TraceLintStream before(options);
    for (std::size_t i = 0; i < cut; ++i) before.feed(t[i]);
    TraceLintStream after(options);
    after.import_state(before.export_state());
    for (std::size_t i = cut; i < t.size(); ++i) after.feed(t[i]);
    after.finish();
    const LintResult resumed = after.take();
    ASSERT_EQ(resumed.diagnostics.size(), r.diagnostics.size())
        << "cut " << cut;
    for (std::size_t k = 0; k < r.diagnostics.size(); ++k) {
      EXPECT_EQ(resumed.diagnostics[k].index, r.diagnostics[k].index);
      EXPECT_EQ(resumed.diagnostics[k].message, r.diagnostics[k].message);
    }
  }
}

TEST(TraceLint, ReleasedMutexesAndGateLocationsLeaveNoState) {
  // A release erases its mutex, so lock churn over many distinct mutexes
  // leaves the lint state where it started; so do accesses to many
  // locations when warnings are off. With warnings on, the location table
  // is charged at its slot array, not its entry count.
  constexpr Loc kCount = 4096;
  TraceLintOptions gate;
  gate.warnings = false;
  TraceLintStream churn(gate);
  churn.feed(write(0, 0x1));
  const std::size_t start = churn.memory_bytes();
  EXPECT_GT(start, 0u);
  for (Loc id = 1; id <= kCount; ++id) {
    churn.feed(acq(0, id << 4));
    churn.feed(write(0, id));
    churn.feed(rel(0, id << 4));
  }
  EXPECT_TRUE(churn.ok_so_far());
  EXPECT_EQ(churn.memory_bytes(), start);
  EXPECT_TRUE(churn.export_state().mutexes.empty());
  EXPECT_TRUE(churn.export_state().locs.empty());

  TraceLintStream full;
  for (Loc loc = 1; loc <= kCount; ++loc) full.feed(write(0, loc));
  // Flat slots of (key, state, occupied) at a load of at most 5/8.
  EXPECT_GE(full.memory_bytes(), kCount * 16 * 8 / 5);
  EXPECT_EQ(full.export_state().locs.size(), kCount);
}

TEST(TraceLint, RetireHygieneWarnings) {
  const LintResult reuse = lint_trace(
      {write(0, 0x1), retire(0, 0x1), read(0, 0x1), halt(0)});
  EXPECT_TRUE(reuse.ok());  // warnings don't fail the lint
  EXPECT_TRUE(has_code(reuse, LintCode::kAccessAfterRetire));
  EXPECT_EQ(lint_code_severity(LintCode::kAccessAfterRetire),
            LintSeverity::kWarning);

  const LintResult dead = lint_trace({retire(0, 0x1), halt(0)});
  EXPECT_TRUE(dead.ok());
  EXPECT_TRUE(has_code(dead, LintCode::kDeadRetire));

  // A dead retire does NOT end a lifetime: the later access is not flagged.
  const LintResult after_dead =
      lint_trace({retire(0, 0x1), write(0, 0x1), halt(0)});
  EXPECT_FALSE(has_code(after_dead, LintCode::kAccessAfterRetire));

  TraceLintOptions quiet;
  quiet.warnings = false;
  const Trace reuse_trace = {write(0, 0x1), retire(0, 0x1), read(0, 0x1),
                             halt(0)};
  EXPECT_TRUE(TraceLinter(quiet).run(reuse_trace).diagnostics.empty());
}

TEST(TraceLint, DiagnosticCapTruncates) {
  Trace t;
  for (int i = 0; i < 100; ++i) t.push_back(read(99, 0x1));  // unknown actor
  t.push_back(halt(0));
  TraceLintOptions options;
  options.max_diagnostics = 5;
  const LintResult r = TraceLinter(options).run(t);
  EXPECT_EQ(r.diagnostics.size(), 5u);
  EXPECT_TRUE(r.truncated);
}

TEST(TraceLint, WarningFloodCannotMaskErrors) {
  // Regression test for a bug found by the fuzzer: the diagnostic cap used
  // to be shared across severities, so a retire-churny trace could fill the
  // cap with W101 warnings and lint "clean" despite an error-level defect
  // further down. The cap is now per severity class.
  Trace t;
  for (Loc l = 1; l <= 100; ++l) {
    t.push_back(write(0, l));
    t.push_back(retire(0, l));
    t.push_back(read(0, l));  // access after retire: warning W101
  }
  t.push_back(read(42, 0x1));  // unknown actor: error L001, event 300
  t.push_back(halt(0));

  const LintResult capped = lint_trace(t);  // default cap 64 < 100 warnings
  EXPECT_FALSE(capped.ok());
  EXPECT_TRUE(has_code(capped, LintCode::kUnknownActor)) << to_string(capped);
  EXPECT_TRUE(capped.truncated);

  TraceLintOptions tight;
  tight.max_diagnostics = 2;  // even a tiny cap cannot hide the error
  const LintResult r = TraceLinter(tight).run(t);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, LintCode::kUnknownActor)) << to_string(r);
}

TEST(TraceLint, DiagnosticsRenderCodeAndIndex) {
  const LintResult r = lint_trace({fork(0, 5), halt(0)});
  ASSERT_FALSE(r.ok());
  const std::string s = to_string(r.first_error());
  EXPECT_NE(s.find("L005"), std::string::npos) << s;
  EXPECT_NE(s.find("fork-child-not-dense"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Lint gates on the detector entry points.

TEST(LintGate, SerialDriverRejectsMalformedTrace) {
  const Trace bad = {fork(0, 1), join(0, 1), halt(0)};  // join of running task
  try {
    detect_races_trace(bad);
    FAIL() << "expected TraceLintError";
  } catch (const TraceLintError& e) {
    EXPECT_FALSE(e.result().ok());
    EXPECT_TRUE(has_code(e.result(), LintCode::kJoinTargetNotHalted));
    // The headline carries the FIRST error: the join is out of serial
    // order (the forked child is still running) before it is premature.
    EXPECT_NE(std::string(e.what()).find("L006"), std::string::npos)
        << e.what();
  }
}

TEST(LintGate, SkipGateReplaysWarnedTraces) {
  const Trace warned = {write(0, 0x1), retire(0, 0x1), read(0, 0x1), halt(0)};
  // Warnings never gate; both gate modes accept this trace.
  EXPECT_EQ(detect_races_trace(warned).size(),
            detect_races_trace(warned, ReportPolicy::kAll, LintGate::kSkip)
                .size());
}

TEST(LintGate, LoadTraceTextLintsButParseDoesNot) {
  const std::string truncated = "fork 0 1\nwrite 1 ff\n";
  EXPECT_EQ(parse_trace_text(truncated).size(), 2u);
  try {
    load_trace_text(truncated);
    FAIL() << "expected TraceLintError";
  } catch (const TraceLintError& e) {
    EXPECT_TRUE(has_code(e.result(), LintCode::kTruncatedTrace));
  }
}

TEST(LintGate, LockViolationsGateButSkipReplaysThem) {
  // L017-L020 are error-level: the gated drivers reject the trace. Under
  // LintGate::kSkip the detectors — which are lock-agnostic — must replay
  // the same trace without crashing and report exactly what the lock-free
  // projection reports.
  const Trace bad_release = {fork(0, 1), write(1, 0x5), halt(1), join(0, 1),
                             rel(0, 0xbeef), read(0, 0x5), halt(0)};
  try {
    detect_races_trace(bad_release);
    FAIL() << "expected TraceLintError";
  } catch (const TraceLintError& e) {
    EXPECT_TRUE(has_code(e.result(), LintCode::kReleaseWithoutAcquire));
  }

  Trace lock_free = bad_release;
  lock_free.erase(lock_free.begin() + 4);  // drop the stray release
  std::vector<RaceReport> skipped, baseline;
  ASSERT_NO_THROW(skipped = detect_races_trace(bad_release,
                                               ReportPolicy::kAll,
                                               LintGate::kSkip));
  ASSERT_NO_THROW(baseline = detect_races_trace(lock_free,
                                                ReportPolicy::kAll));
  EXPECT_EQ(skipped, baseline);

  // An acquire naming a lock id nothing ever released (and a double
  // acquire) must likewise never crash an ungated replay.
  const Trace bad_acquire = {acq(0, 0x10), acq(0, 0x10),
                             acq(0, kSemaphoreBit | 0x7), write(0, 0x1),
                             halt(0)};
  EXPECT_THROW(detect_races_trace(bad_acquire), TraceLintError);
  ASSERT_NO_THROW(detect_races_trace(bad_acquire, ReportPolicy::kAll,
                                     LintGate::kSkip));
}

TEST(LintGate, SkipGateCorruptTraceFailsStructurally) {
  // LintGate::kSkip waives the lint pass, not memory safety: replaying a
  // corrupt trace with the gate open must surface a structured
  // ContractViolation, never an assert or out-of-bounds access.
  const Trace unknown_task = {read(5, 0x1), halt(0)};
  const Trace unknown_writer = {write(7, 0x1), halt(0)};
  const Trace unknown_joined = {fork(0, 1), halt(1), join(0, 9), halt(0)};
  for (const Trace* corrupt : {&unknown_task, &unknown_writer, &unknown_joined}) {
    EXPECT_THROW(
        detect_races_trace(*corrupt, ReportPolicy::kAll, LintGate::kSkip),
        ContractViolation);
    EXPECT_THROW(
        detect_races_trace_depa(*corrupt, ReportPolicy::kAll, LintGate::kSkip),
        ContractViolation);
  }
}

TEST(TraceIoParse, TaskIdOutOfRangeRejected) {
  // 2^32 used to truncate to task 0 silently; both the sentinel and
  // anything wider must be a parse error naming the line.
  try {
    parse_trace_text("fork 0 1\nhalt 4294967296\n");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line_number(), 2u);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  EXPECT_THROW(parse_trace_text("halt 4294967295\n"), TraceParseError);
  EXPECT_THROW(parse_trace_text("halt 99999999999999999999\n"),
               TraceParseError);
}

// ---------------------------------------------------------------------------
// Diagram and traversal lints.

TEST(DiagramLint, FlagsShapeDefects) {
  EXPECT_TRUE(has_code(lint_diagram(Diagram{}), LintCode::kEmptyDiagram));

  Diagram two_sources(2);  // no arcs: two in-degree-0 vertices
  EXPECT_TRUE(has_code(lint_diagram(two_sources), LintCode::kNotSingleSource));

  Diagram self_arc(2);
  self_arc.add_arc(0, 1);
  self_arc.add_arc(1, 1);
  EXPECT_TRUE(has_code(lint_diagram(self_arc), LintCode::kSelfArc));

  Diagram dup(2);
  dup.add_arc(0, 1);
  dup.add_arc(0, 1);
  EXPECT_TRUE(has_code(lint_diagram(dup), LintCode::kDuplicateArc));

  Diagram cyclic(3);
  cyclic.add_arc(0, 1);
  cyclic.add_arc(1, 2);
  cyclic.add_arc(2, 1);
  EXPECT_TRUE(has_code(lint_diagram(cyclic), LintCode::kUnreachableOrCyclic));

  const Diagram grid = grid_diagram(3, 4);
  EXPECT_TRUE(lint_diagram(grid).ok());
}

TEST(DiagramLint, OfflineDriverRejectsShapeMismatch) {
  const Diagram grid = grid_diagram(2, 2);
  const std::vector<std::vector<VertexAccess>> too_few(2);
  try {
    detect_races_offline(grid, too_few, WalkMode::kNonSeparating,
                         ReportPolicy::kAll);
    FAIL() << "expected DiagramLintError";
  } catch (const DiagramLintError& e) {
    EXPECT_TRUE(has_code(e.result(), LintCode::kOpsShapeMismatch));
  }
}

TEST(DiagramLint, OfflineDriverRejectsMalformedDiagram) {
  Diagram cyclic(3);
  cyclic.add_arc(0, 1);
  cyclic.add_arc(1, 2);
  cyclic.add_arc(2, 1);
  const std::vector<std::vector<VertexAccess>> ops(3);
  EXPECT_THROW(detect_races_offline(cyclic, ops, WalkMode::kNonSeparating,
                                    ReportPolicy::kAll),
               DiagramLintError);
}

TEST(TraversalLint, CanonicalWalkIsClean) {
  const Diagram d = grid_diagram(3, 3);
  const Traversal t = non_separating_traversal(d);
  const LintResult r = lint_traversal(d, t, TraversalKind::kNonSeparating);
  EXPECT_TRUE(r.ok()) << to_string(r);
}

TEST(TraversalLint, FlagsTamperedWalks) {
  const Diagram d = grid_diagram(3, 3);
  const Traversal good = non_separating_traversal(d);

  {  // Drop the final event: something is missing.
    Traversal t(good.begin(), good.end() - 1);
    EXPECT_FALSE(lint_traversal(d, t, TraversalKind::kNonSeparating).ok());
  }
  {  // Duplicate a loop.
    Traversal t = good;
    const auto loop = std::find_if(t.begin(), t.end(), [](const auto& e) {
      return e.kind == EventKind::kLoop;
    });
    t.insert(loop, *loop);
    EXPECT_TRUE(has_code(lint_traversal(d, t, TraversalKind::kNonSeparating),
                         LintCode::kDuplicateLoop));
  }
  {  // Swap the first two events: the loop no longer precedes its out-arc.
    Traversal t = good;
    std::swap(t[0], t[1]);
    EXPECT_FALSE(lint_traversal(d, t, TraversalKind::kNonSeparating).ok());
  }
  {  // Point an arc at a vertex the diagram lacks.
    Traversal t = good;
    for (auto& e : t)
      if (e.kind == EventKind::kArc || e.kind == EventKind::kLastArc) {
        e.dst = static_cast<VertexId>(d.vertex_count() + 3);
        break;
      }
    EXPECT_TRUE(has_code(lint_traversal(d, t, TraversalKind::kNonSeparating),
                         LintCode::kVertexOutOfRange));
  }
  {  // Stop-arcs are a delayed-traversal construct only.
    Traversal t = good;
    t.push_back({EventKind::kStopArc, 0, kInvalidVertex});
    EXPECT_TRUE(has_code(lint_traversal(d, t, TraversalKind::kNonSeparating),
                         LintCode::kStopArcViolation));
  }
}

TEST(LatticeCheckReasons, NameOffendingVertices) {
  Digraph cyclic(3);
  cyclic.add_arc(0, 1);
  cyclic.add_arc(1, 2);
  cyclic.add_arc(2, 1);
  const auto cycle = check_lattice(cyclic);
  ASSERT_FALSE(cycle.ok);
  EXPECT_NE(cycle.reason.find("cycle through vertex"), std::string::npos)
      << cycle.reason;

  Digraph two_sinks(3);  // diamond missing the bottom: 1 and 2 both sinks
  two_sinks.add_arc(0, 1);
  two_sinks.add_arc(0, 2);
  const auto sinks = check_lattice(two_sinks);
  ASSERT_FALSE(sinks.ok);
  EXPECT_NE(sinks.reason.find("sink"), std::string::npos);
  EXPECT_NE(sinks.reason.find("1"), std::string::npos) << sinks.reason;
  EXPECT_NE(sinks.reason.find("2"), std::string::npos) << sinks.reason;
}

// ---------------------------------------------------------------------------
// Corruption harness: mutate recorded traces event by event. Every mutant is
// either rejected by the linter (and then every gated driver throws the
// typed error, never crashes) or replays with DSU == DePa reports.

enum class Mutation { kDrop, kDuplicate, kSwap, kRetarget };

bool structural(TraceOp op) {
  return op == TraceOp::kFork || op == TraceOp::kJoin || op == TraceOp::kHalt;
}

Trace mutate(const Trace& base, Mutation m, std::size_t i) {
  Trace t = base;
  switch (m) {
    case Mutation::kDrop:
      t.erase(t.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case Mutation::kDuplicate:
      t.insert(t.begin() + static_cast<std::ptrdiff_t>(i), t[i]);
      break;
    case Mutation::kSwap:
      if (i + 1 < t.size()) std::swap(t[i], t[i + 1]);
      break;
    case Mutation::kRetarget:
      if (t[i].op == TraceOp::kFork || t[i].op == TraceOp::kJoin)
        t[i].other = static_cast<TaskId>(t[i].other + 1);
      else
        t[i].actor = static_cast<TaskId>(t[i].actor + 1);
      break;
  }
  return t;
}

void expect_gated_rejection(const Trace& mutant, const char* what) {
  EXPECT_THROW(detect_races_trace(mutant), TraceLintError) << what;
  EXPECT_THROW(detect_races_trace_depa(mutant), TraceLintError) << what;
}

TEST(CorruptionHarness, EveryMutantRejectedOrVerdictConsistent) {
  std::size_t rejected = 0, clean = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ProgramParams params;
    params.seed = seed;
    params.max_actions = 12;
    params.max_tasks = 16;
    const Trace base = record(random_program(params));
    ASSERT_TRUE(lint_trace(base).ok()) << "seed " << seed;
    const std::vector<RaceReport> base_reports = detect_races_trace(base);

    for (const Mutation m : {Mutation::kDrop, Mutation::kDuplicate,
                             Mutation::kSwap, Mutation::kRetarget}) {
      for (std::size_t i = 0; i < base.size(); ++i) {
        const Trace mutant = mutate(base, m, i);
        if (mutant == base) continue;
        const LintResult lint = lint_trace(mutant);
        if (!lint.ok()) {
          ++rejected;
          expect_gated_rejection(mutant, "seed/mutation/index mismatch");
          continue;
        }
        ++clean;
        // Lint-clean mutants must replay without tripping any internal
        // assert, and the two independent replay paths must agree.
        std::vector<RaceReport> serial, depa;
        ASSERT_NO_THROW(serial = detect_races_trace(mutant))
            << "seed " << seed << " mutation " << static_cast<int>(m)
            << " index " << i;
        ASSERT_NO_THROW(depa = detect_races_trace_depa(mutant));
        EXPECT_EQ(serial, depa);
        // Duplicating an access (or swapping two accesses of one task)
        // cannot change whether the trace is racy.
        const bool same_shape =
            m == Mutation::kDuplicate && !structural(base[i].op);
        if (same_shape) {
          EXPECT_EQ(serial.empty(), base_reports.empty())
              << "seed " << seed << " duplicate at " << i;
        }
      }
    }
  }
  // The harness must exercise both branches to mean anything.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(clean, 0u);
}

TEST(CorruptionHarness, SpecificMutationsCarryStableCodes) {
  const Trace base = record([](TaskContext& ctx) {
    auto a = ctx.fork([](TaskContext& c) { c.write(0x10); });
    ctx.read(0x10);
    ctx.join(a);
  });
  ASSERT_TRUE(lint_trace(base).ok());

  // Find the structural events.
  const auto at = [&](TraceOp op) {
    for (std::size_t i = 0; i < base.size(); ++i)
      if (base[i].op == op) return i;
    ADD_FAILURE() << "trace lacks op";
    return std::size_t{0};
  };

  // Dropping the child's halt: the join consumes a running task.
  EXPECT_TRUE(has_code(lint_trace(mutate(base, Mutation::kDrop,
                                         at(TraceOp::kHalt))),
                       LintCode::kJoinTargetNotHalted));
  // Dropping the join: the root halts with an unjoined child.
  EXPECT_TRUE(has_code(
      lint_trace(mutate(base, Mutation::kDrop, at(TraceOp::kJoin))),
      LintCode::kUnjoinedTask));
  // Dropping the fork: the child's events come from an unknown task.
  EXPECT_TRUE(has_code(
      lint_trace(mutate(base, Mutation::kDrop, at(TraceOp::kFork))),
      LintCode::kUnknownActor));
  // Duplicating the join: second one targets an already-joined task.
  EXPECT_TRUE(has_code(
      lint_trace(mutate(base, Mutation::kDuplicate, at(TraceOp::kJoin))),
      LintCode::kJoinTargetJoined));
  // Retargeting the fork's child breaks dense numbering.
  EXPECT_TRUE(has_code(
      lint_trace(mutate(base, Mutation::kRetarget, at(TraceOp::kFork))),
      LintCode::kForkChildNotDense));
}

// The errors-only gate (no location state, fast path for the running
// task) against the full linter: the same errors — code, index, message —
// and the same truncation flag whenever the full linter's warnings did not
// fill the cap themselves. Run at the service's cap and at a cap of one, so
// truncation is exercised too.
struct GateCounts {
  std::size_t rejected = 0;
  std::size_t truncated = 0;
};

void expect_gate_matches_full(const Trace& trace, const std::string& what,
                              GateCounts& counts) {
  for (const std::size_t cap : {std::size_t{8}, std::size_t{1}}) {
    TraceLintOptions gate;
    gate.warnings = false;
    gate.max_diagnostics = cap;
    TraceLintOptions full;
    full.max_diagnostics = cap;
    const LintResult g = TraceLinter(gate).run(trace);
    const LintResult f = TraceLinter(full).run(trace);
    std::vector<const LintDiagnostic*> errors;
    for (const LintDiagnostic& d : f.diagnostics)
      if (d.severity == LintSeverity::kError) errors.push_back(&d);
    ASSERT_EQ(g.diagnostics.size(), errors.size())
        << what << " cap " << cap << "\ngate:\n" << to_string(g)
        << "full:\n" << to_string(f);
    for (std::size_t k = 0; k < errors.size(); ++k) {
      EXPECT_EQ(g.diagnostics[k].code, errors[k]->code) << what;
      EXPECT_EQ(g.diagnostics[k].index, errors[k]->index) << what;
      EXPECT_EQ(g.diagnostics[k].message, errors[k]->message) << what;
    }
    if (f.warning_count() < cap)
      EXPECT_EQ(g.truncated, f.truncated) << what << " cap " << cap;
    else
      EXPECT_TRUE(!g.truncated || f.truncated) << what << " cap " << cap;
    if (!g.ok()) ++counts.rejected;
    if (g.truncated) ++counts.truncated;
  }
}

TEST(LintGate, ErrorsOnlyGateMatchesFullLinterOverCorpus) {
  GateCounts counts;
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".trace" && ext != ".btrace") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const Trace base =
        ext == ".trace" ? parse_trace_text(in) : read_trace_binary(in);
    const std::string name = entry.path().filename().string();
    expect_gate_matches_full(base, name, counts);
    for (const Mutation m : {Mutation::kDrop, Mutation::kDuplicate,
                             Mutation::kSwap, Mutation::kRetarget})
      for (std::size_t i = 0; i < base.size(); ++i)
        expect_gate_matches_full(mutate(base, m, i),
                                 name + " mutation " +
                                     std::to_string(static_cast<int>(m)) +
                                     " at " + std::to_string(i),
                                 counts);
    ++files;
  }
  EXPECT_GE(files, 20u) << "the regression corpus shrank below its floor";
  EXPECT_GT(counts.rejected, 0u);
  EXPECT_GT(counts.truncated, 0u);
}

TEST(LintGate, ErrorsOnlyGateMatchesFullLinterOverFuzzSeeds) {
  // Each seed's trace, and one mutant of it with the mutation and its
  // index drawn from the seed.
  GateCounts counts;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const Trace base = generate_trace(FuzzPlan::from_seed(seed)).trace;
    const std::string what = "seed " + std::to_string(seed);
    expect_gate_matches_full(base, what, counts);
    if (base.empty()) continue;
    const auto m = static_cast<Mutation>(seed % 4);
    const std::size_t i = (seed * 7919) % base.size();
    expect_gate_matches_full(mutate(base, m, i), what + " mutant", counts);
  }
  EXPECT_GT(counts.rejected, 0u);
  EXPECT_GT(counts.truncated, 0u);
}

TEST(LintGate, ErrorsOnlyGateMatchesFullLinterOverCorruptionMutants) {
  // The corruption harness's mutants: seeds 1–3, every mutation at every
  // index.
  GateCounts counts;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ProgramParams params;
    params.seed = seed;
    params.max_actions = 12;
    params.max_tasks = 16;
    const Trace base = record(random_program(params));
    for (const Mutation m : {Mutation::kDrop, Mutation::kDuplicate,
                             Mutation::kSwap, Mutation::kRetarget})
      for (std::size_t i = 0; i < base.size(); ++i)
        expect_gate_matches_full(
            mutate(base, m, i),
            "seed " + std::to_string(seed) + " mutation " +
                std::to_string(static_cast<int>(m)) + " at " +
                std::to_string(i),
            counts);
  }
  EXPECT_GT(counts.rejected, 0u);
  EXPECT_GT(counts.truncated, 0u);
}

// Every stable code, in enumerator order: the code string, the slug and
// (for lint codes) the severity. A code string never changes once shipped,
// so a table that reorders or renames a row fails here.
TEST(StableCodes, EveryLintAndDecodeCodeInEnumeratorOrder) {
  std::string lint;
  for (int i = 0; i < 61; ++i) {
    const auto code = static_cast<LintCode>(i);
    lint += std::string(lint_code_id(code)) + ' ' + lint_code_slug(code) +
            (lint_code_severity(code) == LintSeverity::kWarning ? " warning\n"
                                                                : " error\n");
  }
  EXPECT_EQ(lint,
      "L001 unknown-actor error\n"
      "L002 actor-halted error\n"
      "L003 double-halt error\n"
      "L004 fork-child-collision error\n"
      "L005 fork-child-not-dense error\n"
      "L006 out-of-serial-order error\n"
      "L007 join-target-unknown error\n"
      "L008 join-target-not-halted error\n"
      "L009 join-not-left-neighbor error\n"
      "L010 join-target-already-joined error\n"
      "L011 event-after-root-halt error\n"
      "L012 truncated-trace error\n"
      "L013 unjoined-task error\n"
      "L014 finish-end-unbalanced error\n"
      "L015 finish-unclosed error\n"
      "L016 invalid-task-id error\n"
      "L017 release-without-acquire error\n"
      "L018 cross-task-mutex-release error\n"
      "L019 mutex-unreleased-at-halt error\n"
      "L020 double-acquire error\n"
      "W101 access-after-retire warning\n"
      "W102 dead-retire warning\n"
      "D001 empty-diagram error\n"
      "D002 not-single-source error\n"
      "D003 unreachable-or-cyclic error\n"
      "D004 self-arc error\n"
      "D005 duplicate-arc error\n"
      "D006 ops-shape-mismatch error\n"
      "T001 vertex-out-of-range error\n"
      "T002 missing-loop error\n"
      "T003 duplicate-loop error\n"
      "T004 unknown-arc error\n"
      "T005 arc-out-of-order error\n"
      "T006 fan-order-violation error\n"
      "T007 last-arc-mismatch error\n"
      "T008 stop-arc-violation error\n"
      "T009 missing-arc error\n"
      "S001 skel-join-underflow error\n"
      "S002 skel-unjoined-at-halt error\n"
      "S003 skel-loop-bounds error\n"
      "S004 skel-branch-empty error\n"
      "S005 skel-interval-invalid error\n"
      "S006 skel-async-outside-finish error\n"
      "S007 skel-pipeline-shape error\n"
      "S008 skel-node-shape error\n"
      "S009 skel-config-space-truncated warning\n"
      "S010 skel-budget-exceeded error\n"
      "S011 skel-possible-violation warning\n"
      "S012 skel-get-before-future error\n"
      "S013 skel-future-never-got error\n"
      "S014 skel-future-get-cycle error\n"
      "S015 skel-get-aliases-cells warning\n"
      "S016 skel-handoff-cell-escapes warning\n"
      "S017 skel-future-budget-exceeded error\n"
      "S018 skel-futures-need-relaxed-mode error\n"
      "S019 skel-release-unheld-mutex error\n"
      "S020 skel-double-acquire error\n"
      "S021 skel-mutex-unreleased-at-halt error\n"
      "S022 skel-lock-order-cycle warning\n"
      "S023 skel-acquire-across-sync warning\n"
      "S024 skel-possible-lock-violation warning\n");
  std::string decode;
  for (int i = 0; i < 18; ++i) {
    const auto code = static_cast<DecodeCode>(i);
    decode += std::string(decode_code_id(code)) + ' ' +
              decode_code_slug(code) + '\n';
  }
  EXPECT_EQ(decode,
      "B001 bad-magic\n"
      "B002 unsupported-version\n"
      "B003 bad-header\n"
      "B004 truncated-input\n"
      "B005 chunk-crc-mismatch\n"
      "B006 malformed-varint\n"
      "B007 unknown-opcode\n"
      "B008 task-id-out-of-range\n"
      "B009 bad-frame-marker\n"
      "B010 event-count-mismatch\n"
      "B011 chunk-too-large\n"
      "B012 trailing-bytes\n"
      "B013 missing-trailer\n"
      "B014 trailer-crc-mismatch\n"
      "B015 bad-compressed-item\n"
      "B016 bad-run-count\n"
      "B017 bad-template-ref\n"
      "B018 chunk-too-many-events\n");
  // Past the last enumerator: the fallback strings.
  EXPECT_STREQ(lint_code_id(static_cast<LintCode>(61)), "????");
  EXPECT_STREQ(lint_code_slug(static_cast<LintCode>(61)), "unknown");
  EXPECT_STREQ(decode_code_id(static_cast<DecodeCode>(18)), "B???");
  EXPECT_STREQ(decode_code_slug(static_cast<DecodeCode>(18)), "unknown");
}

}  // namespace
}  // namespace race2d
