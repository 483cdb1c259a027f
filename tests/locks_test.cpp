// Unit tests for the two halves of the lockset machinery: the static lock
// discipline pass (verify_locks — definiteness gate, symbolic proof or
// refutation, bounded-enumeration counterexamples, structural warnings,
// node_locksets) and the dynamic lockset filter (access_locksets,
// filter_guarded_races, detect_races_trace_guarded). The end-to-end
// composition is covered by skeleton_corpus_test and the agreement sweep;
// these tests pin each piece in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/replay.hpp"
#include "runtime/trace.hpp"
#include "static/locks.hpp"
#include "static/skeleton.hpp"
#include "support/ids.hpp"
#include "verify/diagnostics.hpp"
#include "verify/lockset_filter.hpp"

namespace race2d {
namespace {

bool has_code(const LintResult& r, LintCode code) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [code](const LintDiagnostic& d) { return d.code == code; });
}

// ---------------------------------------------------------------------------
// verify_locks: the definiteness gate and both verdict paths.

TEST(VerifyLocks, LockFreeSkeletonIsTriviallyCleanAndExact) {
  const Skeleton s{skel::seq({skel::write(0, 0)})};
  const LockReport r = verify_locks(s);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.proved_definite);
  EXPECT_TRUE(r.lint.ok());
}

TEST(VerifyLocks, DefiniteProofNeedsNoEnumeration) {
  // No lock op under a loop or branch: one symbolic simulation decides the
  // whole space, even though the loop gives the skeleton many configs.
  std::vector<SkelNode> cs;
  cs.push_back(skel::write(0, 0));
  std::vector<SkelNode> body;
  body.push_back(skel::lock(0x10, std::move(cs)));
  body.push_back(skel::loop(1, 3, {skel::read(0, 0)}));
  const Skeleton s{skel::seq(std::move(body))};
  const LockReport r = verify_locks(s);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.proved_definite);
  EXPECT_EQ(r.configs_checked, 0u);  // the proof fast path never lowers
}

TEST(VerifyLocks, DefiniteRefutationDoubleAcquire) {
  // lock 0x10 { acquire 0x10 }: every concretization re-acquires a held
  // mutex, so the symbolic pass refutes without enumerating.
  std::vector<SkelNode> cs;
  cs.push_back(skel::acquire(0x10));
  const Skeleton s{skel::seq({skel::lock(0x10, std::move(cs))})};
  const LockReport r = verify_locks(s);
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.proved_definite);
  EXPECT_TRUE(has_code(r.lint, LintCode::kSkelDoubleAcquire));
}

TEST(VerifyLocks, DefiniteRefutationReleaseUnheldAndUnreleased) {
  const Skeleton release_unheld{skel::seq({skel::release(0x10)})};
  EXPECT_TRUE(has_code(verify_locks(release_unheld).lint,
                       LintCode::kSkelReleaseUnheld));

  const Skeleton unreleased{skel::seq({skel::acquire(0x10)})};
  const LockReport r = verify_locks(unreleased);
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(has_code(r.lint, LintCode::kSkelUnreleasedAtHalt));
}

TEST(VerifyLocks, EnumerationFindsBranchCounterexample) {
  // acquire under a branch: indefinite (the gate fails), and only the arm
  // that acquires violates (halt holding) — the enumeration must find that
  // arm and ship its config plus the violating trace prefix.
  std::vector<SkelNode> arms;
  arms.push_back(skel::seq({skel::acquire(0x10)}));
  arms.push_back(skel::seq({skel::read(0, 0)}));
  const Skeleton s{skel::seq({skel::branch(std::move(arms))})};
  const LockReport r = verify_locks(s);
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(r.exact);  // enumeration exhausted the space
  EXPECT_FALSE(r.proved_definite);
  EXPECT_TRUE(has_code(r.lint, LintCode::kSkelUnreleasedAtHalt));
  ASSERT_TRUE(r.has_counterexample);
  EXPECT_GT(r.configs_checked, 0u);
  EXPECT_FALSE(r.counterexample.ok);
}

TEST(VerifyLocks, EnumerationProvesBranchClean) {
  // Both arms are balanced: indefinite shape, but every config is clean.
  std::vector<SkelNode> arm_a;
  arm_a.push_back(skel::lock(0x10, {skel::write(0, 0)}));
  std::vector<SkelNode> arms;
  arms.push_back(skel::seq(std::move(arm_a)));
  arms.push_back(skel::seq({skel::read(0, 0)}));
  const Skeleton s{skel::seq({skel::branch(std::move(arms))})};
  const LockReport r = verify_locks(s);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.exact);
  EXPECT_FALSE(r.proved_definite);
  EXPECT_GT(r.configs_checked, 0u);
}

TEST(VerifyLocks, SemaphoreHandOffIsCleanAndZeroCountAcquireIsNot) {
  // V in the parent funds the forked child's P (Klein–Lu–Netzer).
  const Loc sem = kSemaphoreBit | 0x2000;
  std::vector<SkelNode> child;
  child.push_back(skel::sem_acquire(sem));
  std::vector<SkelNode> body;
  body.push_back(skel::sem_release(sem));
  body.push_back(skel::fork(std::move(child)));
  body.push_back(skel::join_left());
  const Skeleton handoff{skel::seq(std::move(body))};
  EXPECT_TRUE(verify_locks(handoff).clean);

  // Without the V, the P blocks the serial order forever: S020, definite.
  std::vector<SkelNode> starved_child;
  starved_child.push_back(skel::sem_acquire(sem));
  std::vector<SkelNode> starved;
  starved.push_back(skel::fork(std::move(starved_child)));
  starved.push_back(skel::join_left());
  const LockReport r = verify_locks(Skeleton{skel::seq(std::move(starved))});
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(has_code(r.lint, LintCode::kSkelDoubleAcquire));
}

TEST(VerifyLocks, StructuralWarningsDoNotFailTheVerdict) {
  // Opposite nesting orders of the same mutex pair: S022, warning-level.
  std::vector<SkelNode> ab_inner;
  ab_inner.push_back(skel::lock(0x20, {skel::write(0, 0)}));
  std::vector<SkelNode> ba_inner;
  ba_inner.push_back(skel::lock(0x10, {skel::write(1, 1)}));
  std::vector<SkelNode> body;
  body.push_back(skel::lock(0x10, std::move(ab_inner)));
  body.push_back(skel::lock(0x20, std::move(ba_inner)));
  const LockReport cycle = verify_locks(Skeleton{skel::seq(std::move(body))});
  EXPECT_TRUE(cycle.clean);  // warnings never flip the verdict
  EXPECT_TRUE(has_code(cycle.lint, LintCode::kSkelLockOrderCycle));
  EXPECT_EQ(lint_code_severity(LintCode::kSkelLockOrderCycle),
            LintSeverity::kWarning);

  // A join inside a critical section: S023 (deadlock-prone shape).
  std::vector<SkelNode> cs;
  cs.push_back(skel::fork({skel::read(0, 0)}));
  cs.push_back(skel::join_left());
  const LockReport across =
      verify_locks(Skeleton{skel::seq({skel::lock(0x10, std::move(cs))})});
  EXPECT_TRUE(across.clean);
  EXPECT_TRUE(has_code(across.lint, LintCode::kSkelAcquireAcrossSync));
}

TEST(NodeLocksets, ScopesStopAtTaskBoundaries) {
  // seq(lock 0x10 { write, fork { write } }): preorder ids are
  // 0=seq, 1=lock, 2=write, 3=fork, 4=write. The direct write inherits the
  // critical section; the forked body does not.
  std::vector<SkelNode> forked;
  forked.push_back(skel::write(1, 1));
  std::vector<SkelNode> cs;
  cs.push_back(skel::write(0, 0));
  cs.push_back(skel::fork(std::move(forked)));
  cs.push_back(skel::join_left());
  const Skeleton s{skel::seq({skel::lock(0x10, std::move(cs))})};
  const std::vector<std::vector<Loc>> sets = node_locksets(s);
  ASSERT_GE(sets.size(), 5u);
  EXPECT_EQ(sets[2], (std::vector<Loc>{0x10}));
  EXPECT_TRUE(sets[4].empty());
}

// ---------------------------------------------------------------------------
// The dynamic lockset filter.

TraceEvent fork_ev(TaskId p, TaskId c) { return {TraceOp::kFork, p, c, 0}; }
TraceEvent join_ev(TaskId p, TaskId c) { return {TraceOp::kJoin, p, c, 0}; }
TraceEvent halt_ev(TaskId t) { return {TraceOp::kHalt, t, kInvalidTask, 0}; }
TraceEvent write_ev(TaskId t, Loc l) {
  return {TraceOp::kWrite, t, kInvalidTask, l};
}
TraceEvent acq_ev(TaskId t, Loc id) {
  return {TraceOp::kAcquire, t, kInvalidTask, id};
}
TraceEvent rel_ev(TaskId t, Loc id) {
  return {TraceOp::kRelease, t, kInvalidTask, id};
}

// Two concurrent writes to `loc`, each under its task's mutex (0 = none).
Trace guarded_pair(Loc loc, Loc child_mutex, Loc parent_mutex) {
  Trace t;
  t.push_back(fork_ev(0, 1));
  if (child_mutex != 0) t.push_back(acq_ev(1, child_mutex));
  t.push_back(write_ev(1, loc));
  if (child_mutex != 0) t.push_back(rel_ev(1, child_mutex));
  t.push_back(halt_ev(1));
  if (parent_mutex != 0) t.push_back(acq_ev(0, parent_mutex));
  t.push_back(write_ev(0, loc));
  if (parent_mutex != 0) t.push_back(rel_ev(0, parent_mutex));
  t.push_back(join_ev(0, 1));
  t.push_back(halt_ev(0));
  return t;
}

TEST(LocksetFilter, AccessLocksetsFollowTheCountedOrdinals) {
  const Trace t = guarded_pair(0x5, 0x10, 0x20);
  const std::vector<std::vector<Loc>> sets = access_locksets(t);
  ASSERT_EQ(sets.size(), 2u);  // two counted accesses
  EXPECT_EQ(sets[0], (std::vector<Loc>{0x10}));
  EXPECT_EQ(sets[1], (std::vector<Loc>{0x20}));
}

TEST(LocksetFilter, CommonMutexSuppressesTheReport) {
  const Trace t = guarded_pair(0x5, 0x10, 0x10);
  ASSERT_EQ(detect_races_trace(t).size(), 1u);  // detector is lock-agnostic
  const GuardedFilterResult r = detect_races_trace_guarded(t);
  EXPECT_TRUE(r.reports.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LocksetFilter, DisjointLocksetsPassThrough) {
  const Trace t = guarded_pair(0x5, 0x10, 0x20);
  const GuardedFilterResult r = detect_races_trace_guarded(t);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.suppressed, 0u);
  EXPECT_EQ(r.reports, detect_races_trace(t));  // pure suppression
}

TEST(LocksetFilter, SemaphoresNeverSuppress) {
  // Both writes sit between a P and a V of the same semaphore, the shape
  // that fools Eraser-style lockset analyses into treating a semaphore as a
  // mutex. Semaphores order but do not exclude: the report must survive.
  const Loc sem = kSemaphoreBit | 0x2000;
  Trace t;
  t.push_back(rel_ev(0, sem));  // fund both P's up front
  t.push_back(rel_ev(0, sem));
  t.push_back(fork_ev(0, 1));
  t.push_back(acq_ev(1, sem));
  t.push_back(write_ev(1, 0x5));
  t.push_back(rel_ev(1, sem));
  t.push_back(halt_ev(1));
  t.push_back(acq_ev(0, sem));
  t.push_back(write_ev(0, 0x5));
  t.push_back(rel_ev(0, sem));
  t.push_back(join_ev(0, 1));
  t.push_back(halt_ev(0));
  const GuardedFilterResult r = detect_races_trace_guarded(t);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.suppressed, 0u);
  const std::vector<std::vector<Loc>> sets = access_locksets(t);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_TRUE(sets[0].empty());  // a held semaphore is not a lockset entry
  EXPECT_TRUE(sets[1].empty());
}

TEST(LocksetFilter, UnexplainableReportsPassThrough) {
  // filter_guarded_races only suppresses reports it can re-derive: a
  // fabricated report whose ordinal has no concurrent conflicting prior
  // must come out unchanged (suppression-only contract).
  const Trace t = guarded_pair(0x5, 0x10, 0x10);
  const TaskGraph graph = build_task_graph(t);
  const HappensBeforeOracle oracle(graph);
  RaceReport fake;
  fake.loc = 0x999;  // no such location in the trace
  fake.current_task = 0;
  fake.access_index = 2;
  const GuardedFilterResult r = filter_guarded_races(t, {fake}, oracle);
  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports.front(), fake);
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(LocksetFilter, LockFreeTracesTakeTheFastPath) {
  const Trace t = guarded_pair(0x5, 0, 0);
  const GuardedFilterResult r = detect_races_trace_guarded(t);
  EXPECT_EQ(r.suppressed, 0u);
  EXPECT_EQ(r.reports, detect_races_trace(t));
}

}  // namespace
}  // namespace race2d
