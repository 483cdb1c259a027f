// The order-maintenance backend, held to its contracts:
//
//   1. Each list keeps tag order equal to list order through every
//      insertion and relabel, checked against a std::list reference.
//
//   2. The tags realize happens-before: for every pair of access events
//      in a trace, OmClock::ordered_before agrees with the reachability
//      oracle over the Theorem-6 task graph. This is the 2D claim itself —
//      E-order AND H-order agreement IS precedence — checked exhaustively
//      on fuzz-generated traces (which exercise escaped asyncs, futures and
//      pipeline shapes well beyond series-parallel).
//
//   3. DePaDetector's report stream is BIT-IDENTICAL to serial Figure-6
//      replay: same reports, same order, same ordinals — on generated
//      programs, fuzz traces, the whole checked-in regression corpus, and a
//      program long enough to force relabels, also across snapshots.
//
//   4. Per-task bytes stay flat however many tasks a program runs.
#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "baselines/oracle.hpp"
#include "core/depa_detector.hpp"
#include "core/om_timestamps.hpp"
#include "core/sharded_analyzer.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

Trace record(TaskBody program) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(program));
  return rec.take();
}

/// Walks `list` from `head` and checks it against `ref` element by element,
/// with back links intact and tags strictly increasing inside the universe.
void expect_list_matches(const std::list<OmInterval*>& ref, OmInterval* head,
                         OmClock::List list) {
  const OmInterval* prev = nullptr;
  const OmInterval* at = head;
  for (const OmInterval* want : ref) {
    ASSERT_EQ(at, want);
    ASSERT_EQ((at->*list).prev, prev);
    if (prev != nullptr) {
      ASSERT_LT((prev->*list).tag, (at->*list).tag);
    }
    ASSERT_LT((at->*list).tag, OmClock::kUniverse);
    prev = at;
    at = (at->*list).next;
  }
  ASSERT_EQ(at, nullptr);
}

// The list starts from a head at tag 0 (as a clock's root does), and again
// from a head 2^40 below the top of the universe, where tail appends soon
// stop fitting their stride and relabels run into the universe's end.
TEST(OmClock, InsertAfterMatchesAListReferenceThroughRelabels) {
  for (const std::uint64_t head_tag :
       {std::uint64_t{0}, OmClock::kUniverse - (std::uint64_t{1} << 40)}) {
    std::deque<OmInterval> pool;  // stable addresses
    std::list<OmInterval*> ref;
    std::vector<std::list<OmInterval*>::iterator> where;  // per element
    pool.emplace_back().e.tag = head_tag;
    where.push_back(ref.insert(ref.end(), &pool.back()));
    const auto insert_after = [&](std::list<OmInterval*>::iterator at) {
      OmInterval* y = &pool.emplace_back();
      OmClock::insert_after(&OmInterval::e, *at, y);
      where.push_back(ref.insert(std::next(at), y));
    };

    // A quarter of the inserts go right after the head (the gap there
    // halves every time), a quarter append at the tail, the rest after a
    // uniformly random element.
    Xoshiro256 rng(20261017);
    std::size_t after_head = 0;
    std::size_t at_tail = 0;
    for (std::size_t i = 1; i <= 100000; ++i) {
      switch (rng.below(4)) {
        case 0:
          insert_after(where.front());
          ++after_head;
          break;
        case 1:
          insert_after(std::prev(ref.end()));
          ++at_tail;
          break;
        default:
          insert_after(where[rng.below(where.size())]);
          break;
      }
      if (i % 1000 == 0) {
        expect_list_matches(ref, &pool.front(), &OmInterval::e);
        if (HasFatalFailure())
          FAIL() << "head tag " << head_tag << ", after " << i << " inserts";
      }
    }
    EXPECT_GE(after_head, 10000u);
    EXPECT_GE(at_tail, 10000u);
  }
}

TEST(DePaDetector, ForkMakesConcurrencyJoinOrdersIt) {
  DePaDetector det;
  const TaskId root = det.on_root();
  det.on_write(root, 7);
  const TaskId child = det.on_fork(root);
  // Root's pre-fork interval precedes both sides; child and continuation
  // are mutually unordered.
  EXPECT_FALSE(det.ordered_before(child, root));
  EXPECT_FALSE(det.ordered_before(root, child));
  det.on_write(child, 7);  // root's write was pre-fork, hence ordered
  EXPECT_FALSE(det.race_found());
  det.on_write(root, 7);  // concurrent with the child's write: a race.
  EXPECT_TRUE(det.race_found());
  det.on_halt(child);
  det.on_join(root, child);
  EXPECT_TRUE(det.ordered_before(child, root));
  det.on_write(root, 7);  // post-join: ordered after everything.
  EXPECT_EQ(det.reporter().count(), 1u);
}

// Structural mirror of detect_races_trace_depa that records each access
// event's interval, paired below with the task-graph vertex carrying the
// same access (build_task_graph assigns vertices in trace order).
struct LabeledAccesses {
  std::vector<const OmInterval*> intervals;  ///< per access event, in order
};

LabeledAccesses label_accesses(const Trace& trace, OmClock& clock) {
  LabeledAccesses out;
  std::vector<OmInterval*> cur;
  cur.push_back(clock.make_root());
  for (const TraceEvent& e : trace) {
    switch (e.op) {
      case TraceOp::kFork: {
        OmClock::ForkResult r = clock.on_fork(cur[e.actor]);
        EXPECT_EQ(cur.size(), static_cast<std::size_t>(e.other));
        cur.push_back(r.child);
        cur[e.actor] = r.continuation;
        break;
      }
      case TraceOp::kJoin:
        cur[e.actor] = clock.on_join(cur[e.actor], cur[e.other]);
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
      case TraceOp::kRetire:
        out.intervals.push_back(cur[e.actor]);
        break;
      default:
        break;
    }
  }
  return out;
}

TEST(DePaDetector, LabelsRealizeHappensBeforeOnFuzzTraces) {
  std::size_t pairs_checked = 0;
  for (std::uint64_t seed : {11ull, 23ull, 47ull, 101ull, 997ull, 4242ull}) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed)).trace;
    const TaskGraph tg = build_task_graph(trace);
    const HappensBeforeOracle oracle(tg);

    OmClock clock;
    const LabeledAccesses labeled = label_accesses(trace, clock);

    // Vertices carrying an access, in vertex order == trace order.
    std::vector<VertexId> access_vertices;
    for (std::size_t v = 0; v < tg.ops.size(); ++v)
      for (std::size_t k = 0; k < tg.ops[v].size(); ++k)
        access_vertices.push_back(static_cast<VertexId>(v));
    ASSERT_EQ(access_vertices.size(), labeled.intervals.size())
        << "seed " << seed;

    // Bound the quadratic sweep; fuzz traces are a few hundred events.
    const std::size_t n = std::min<std::size_t>(access_vertices.size(), 400);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const bool labels = OmClock::ordered_before(labeled.intervals[i],
                                                    labeled.intervals[j]);
        // Labels are interval-granular: two accesses in one interval share
        // a timestamp and compare "ordered" both ways. The detector only
        // ever queries prior-against-current, where same-interval means
        // same task — ordered — so this coarsening is exactly right.
        const bool truth =
            labeled.intervals[i] == labeled.intervals[j]
                ? true
                : oracle.ordered(access_vertices[i], access_vertices[j]);
        ASSERT_EQ(labels, truth)
            << "seed " << seed << " accesses " << i << " -> " << j
            << " (vertices " << access_vertices[i] << " -> "
            << access_vertices[j] << ")";
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(pairs_checked, 100000u) << "the sweep degenerated";
}

TEST(DePaDetector, BitIdenticalToSerialOnGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ProgramParams params;
    params.seed = seed * 0xC0FFEE;
    params.max_tasks = 96;
    params.loc_pool = 16;
    const Trace trace = record(random_program(params));
    EXPECT_EQ(detect_races_trace_depa(trace), detect_races_trace(trace))
        << "seed " << seed;
  }
  // Near-miss traces: every verdict hinges on a single join edge.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProgramParams params;
    params.seed = seed * 31337;
    params.max_tasks = 64;
    const Trace trace = record(near_miss_program(params, 0.3));
    EXPECT_EQ(detect_races_trace_depa(trace), detect_races_trace(trace))
        << "near-miss seed " << seed;
  }
}

TEST(DePaDetector, BitIdenticalToSerialOnFuzzTraces) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed)).trace;
    EXPECT_EQ(detect_races_trace_depa(trace, ReportPolicy::kAll,
                                      LintGate::kSkip),
              detect_races_trace(trace, ReportPolicy::kAll, LintGate::kSkip))
        << "seed " << seed;
  }
}

TEST(DePaDetector, BitIdenticalToSerialOnTheCheckedInCorpus) {
  std::size_t replayed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    const Trace trace = load_trace_text(in);
    EXPECT_EQ(detect_races_trace_depa(trace), detect_races_trace(trace))
        << entry.path();
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "the regression corpus shrank below its floor";
}

TEST(DePaDetector, FootprintAccountsClockAndCells) {
  DePaDetector det;
  const TaskId root = det.on_root();
  TaskId t = root;
  for (int i = 0; i < 40; ++i) {
    t = det.on_fork(t);
    det.on_write(t, static_cast<Loc>(i));
  }
  const MemoryFootprint f = det.footprint();
  EXPECT_GT(f.per_task_bytes, 0u);
  EXPECT_GT(f.shadow_bytes, 0u);
  EXPECT_EQ(det.tracked_locations(), 40u);
}

// A root that forks, and joins, 10^5 children one after another: every
// interval is a fixed size, so per-task bytes stay flat. (Fork-path labels
// grew a few bits per child and made this quadratic.)
TEST(DePaDetector, PerTaskBytesStayFlatOverSequentialChildren) {
  DePaDetector det;
  const TaskId root = det.on_root();
  double first = 0;
  for (std::size_t n = 1; n <= 100000; ++n) {
    const TaskId child = det.on_fork(root);
    det.on_write(child, static_cast<Loc>(n % 64));
    det.on_halt(child);
    det.on_join(root, child);
    if (n == 100 || n == 1000 || n == 10000 || n == 100000) {
      const double per_task =
          static_cast<double>(det.footprint().per_task_bytes) /
          static_cast<double>(det.task_count());
      if (first == 0) first = per_task;
      ASSERT_LE(per_task, 1.25 * first) << "after " << n << " children";
    }
  }
}

/// `count` fuzz subprograms run one after another under one root, the way
/// the end-to-end benchmark composes its long sessions: subprogram i is a
/// child of task 0 with its task ids shifted to stay dense in fork order and
/// its locations shifted into window i % 16, and the root joins it before
/// forking the next, so subprograms never race with each other.
Trace composed_program(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  Trace out;
  TaskId next_task = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const Trace sub = generate_trace(FuzzPlan::from_seed(rng())).trace;
    const TaskId base = next_task;
    const Loc loc_base = static_cast<Loc>(i % 16) << 21;
    out.push_back({TraceOp::kFork, 0, base, 0});
    ++next_task;
    bool halted = false;
    for (TraceEvent e : sub) {
      if (e.op == TraceOp::kFork) ++next_task;
      if (e.op == TraceOp::kHalt && e.actor == 0) halted = true;
      e.actor += base;
      if (e.other != kInvalidTask) e.other += base;
      if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
          e.op == TraceOp::kRetire)
        e.loc += loc_base;
      out.push_back(e);
    }
    if (!halted) out.push_back({TraceOp::kHalt, base, kInvalidTask, 0});
    out.push_back({TraceOp::kJoin, 0, base, 0});
  }
  out.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return out;
}

// The fuzz panel's traces are too short to fill a tag gap; 2 000 composed
// subprograms relabel both lists many times over.
TEST(DePaDetector, BitIdenticalToSerialOnALongComposedProgram) {
  const Trace trace = composed_program(2026, 2000);
  const std::vector<RaceReport> expected = detect_races_trace(trace);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(detect_races_trace_depa(trace), expected);

  // Relabels did happen: the second half of the program moved tags that
  // intervals of the first half held.
  const Trace first_half(trace.begin(), trace.begin() + trace.size() / 2);
  OmClock half;
  OmClock full;
  label_accesses(first_half, half);
  label_accesses(trace, full);
  std::size_t moved = 0;
  half.for_each_interval([&](std::size_t i, const OmInterval* iv) {
    const OmInterval* now = full.interval_at(i);
    moved += iv->e.tag != now->e.tag || iv->h.tag != now->h.tag;
  });
  EXPECT_GT(moved, 0u);
}

// The same program through a DePa session that is snapshotted and restored
// every 64 frames: each restore rebuilds lists that have been relabeled, and
// the drained stream still matches serial replay report for report.
TEST(DePaDetector, SnapshotsOfRelabeledListsRestoreBitIdentically) {
  constexpr std::size_t kFrame = 1024;
  const Trace trace = composed_program(2026, 2000);
  const std::string wire = trace_to_binary(trace);
  auto session = std::make_unique<DetectionSession>(
      ReportPolicy::kAll, std::size_t{1} << 20, DetectorEngine::kDepa);
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
  EXPECT_TRUE(session->close().complete);
  EXPECT_GE(restores, 10u);
  EXPECT_EQ(got, detect_races_trace(trace));
}

}  // namespace
}  // namespace race2d
