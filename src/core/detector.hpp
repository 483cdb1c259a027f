// The race detectors of §4 (Figure 6) over the suprema engine.
//
// OnlineRaceDetector — the paper's headline algorithm. It consumes the
// thread-level event stream of a serial fork-first execution of a structured
// fork-join program (§5): fork/join/halt structure events plus read/write
// memory events. Internally this is precisely the collapsed delayed
// traversal T'' of eq. (8):
//     x forks y  ↦ (x, y)      — ordinary arc, no engine action
//     x steps    ↦ (x, x)      — loop; every memory access marks its task
//     x joins y  ↦ (y, x)      — delayed last-arc ⇒ Union(x, y)
//     x halts    ↦ (x, ×)      — stop-arc ⇒ mark x unvisited
// Resources: Θ(1) state per live task and per tracked memory location, Θ(α)
// amortized time per operation (Theorem 5).
//
// Θ(1) per LIVE task. Task ids are dense in fork order, but only the
// unjoined tasks on §5's line can still act. The engine keeps slots for
// those and for the tasks joined since the last compaction pass, and a
// LiveTaskIndex maps ids to slots. Reports carry ids; the engine and the
// shadow cells hold slots. A pass is sound because every unjoined task
// labels exactly its own set: a fork makes the child a singleton labeled
// by itself, and a join keeps the joiner's label. So for any x, label(x)
// is an unjoined task in x's set; the two move together from then on, and
// Sup(x, t) = Sup(label(x), t) for every later t. A pass therefore
//   * keeps the live slots, those with label(s) == s, renumbered in id
//     order with their visited flags, each a singleton;
//   * rewrites each cell's read_sup / write_sup to the new slot of its
//     label, which keeps every later verdict;
//   * moves a cell's epoch_task to its owner's new slot, or clears it when
//     the owner was joined — a joined task never acts again, and a cleared
//     cache only sends the next access down the slow path.
// Afterwards no cell names a joined task. A pass runs when the joined slots
// outnumber the cells plus the live slots and the engine holds at least
// LiveTaskIndex::kCompactionFloor slots. It costs O(slots + cells), which
// the joined slots it frees pay for: O(1) amortized per join.
//
// detect_races_offline — contribution (b) in language-independent form: race
// detection over ANY task graph given as a 2D-lattice diagram with memory
// accesses attached to vertices, via Figure 5's exact Walk or Figure 8's
// delayed Walk.
//
// Note on Figure 6 as printed: its On-Read compares against R[loc]; §2.3
// states "for a read we compare against sup W only" (read–read pairs do not
// race). We implement the latter; see detector_semantics_test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/access_history.hpp"
#include "core/report.hpp"
#include "core/suprema_walk.hpp"
#include "support/assert.hpp"
#include "support/ids.hpp"
#include "support/live_tasks.hpp"
#include "support/mem_accounting.hpp"

namespace race2d {

// runtime/trace.hpp includes this header (for the replay drivers below), so
// the try_apply_clean_run shim only forward-declares the event type it
// points at.
struct TraceEvent;

class OnlineRaceDetector {
 public:
  explicit OnlineRaceDetector(ReportPolicy policy = ReportPolicy::kAll)
      : reporter_(policy) {}

  /// Registers the root task (the initial line {root | program}).
  TaskId on_root();

  /// `parent` forks a child; returns the child's task id, the next dense id
  /// in fork order. The child is immediately visited (serial fork-first
  /// execution enters it next).
  TaskId on_fork(TaskId parent);

  /// `joiner` joins `joined` — the delayed last-arc (joined, joiner).
  void on_join(TaskId joiner, TaskId joined);

  /// `t` halts — the stop-arc (t, ×).
  void on_halt(TaskId t);

  /// Figure 6 On-Read / On-Write for the current operation of task `t`.
  void on_read(TaskId t, Loc loc);
  void on_write(TaskId t, Loc loc);

  /// Retires `loc`'s shadow state (scope exit / free). Serial execution
  /// recycles addresses of dead storage across logically concurrent tasks;
  /// retiring at end-of-lifetime prevents spurious reports on reuse, exactly
  /// like the free() hooks of production detectors. The retirement itself is
  /// checked like a write (it must be ordered after every prior access —
  /// retiring live racing storage is itself a bug worth one report).
  void on_retire(TaskId t, Loc loc);

  /// True iff task x's lattice position is ordered before task t's current
  /// operation (eq. 6). Exposed for tests. Requires x to be unjoined or
  /// joined since the last compaction pass: an older joined task has no
  /// slot left, and asking about it is a ContractViolation.
  bool ordered_before(TaskId x, TaskId t) {
    return engine_.ordered_before(slot(x), slot(t));
  }

  /// Shim: perfbench/src/traced.cpp is its only caller, and ROADMAP item 1
  /// deletes it. Never folds a run: the caller replays per event.
  bool try_apply_clean_run(const TraceEvent*, std::size_t, std::uint64_t) {
    return false;
  }

  const RaceReporter& reporter() const { return reporter_; }
  /// Mutable access for incremental consumers (RaceReporter::take()): a
  /// detection session drains pending reports without stopping the replay.
  RaceReporter& mutable_reporter() { return reporter_; }
  bool race_found() const { return reporter_.any(); }

  /// Tasks forked so far, the root included (not the slots held).
  std::size_t task_count() const { return tasks_.task_count(); }
  /// Compaction passes run so far.
  std::size_t compactions() const { return compactions_; }
  std::size_t access_count() const { return access_count_; }
  std::size_t tracked_locations() const { return history_.location_count(); }

  /// Exact byte accounting for E2: shadow = per-location, per-task = DSU
  /// slots plus the task index.
  MemoryFootprint footprint() const;

  /// Snapshot image of the whole detector: the task index, the DSU engine
  /// (one entry per slot), shadow cells (holding slots), reporter totals,
  /// and the access ordinal counter. Policy is NOT part of the state — the
  /// restoring side constructs the detector with the session's recorded
  /// policy first.
  struct State {
    LiveTaskIndex::State tasks;
    SupremaEngine::State engine;
    std::vector<std::pair<Loc, ShadowCell>> cells;
    std::vector<RaceReport> undrained;
    RaceReport first;
    std::uint64_t reports_total = 0;
    std::uint64_t access_count = 0;
  };
  State export_state() const;
  void import_state(State&& s);

 private:
  /// The slot of task `t`; unknown and compacted-away tasks are a
  /// ContractViolation.
  VertexId slot(TaskId t) const {
    const VertexId s = tasks_.row(t);
    R2D_REQUIRE(s != LiveTaskIndex::kNoRow, "unknown or long-joined task");
    return s;
  }
  void compact();

  LiveTaskIndex tasks_;
  SupremaEngine engine_;  ///< one vertex per slot
  AccessHistory history_;
  RaceReporter reporter_;
  std::size_t access_count_ = 0;
  std::size_t joined_since_pass_ = 0;
  std::size_t compactions_ = 0;
};

/// One memory access attached to a task-graph vertex.
struct VertexAccess {
  Loc loc;
  AccessKind kind;
};

enum class WalkMode : std::uint8_t {
  kNonSeparating,   ///< Figure 5 walk (offline; exact suprema)
  kDelayed,         ///< Figure 8 walk over the Definition 3 delayed traversal
  kRuntimeDelayed,  ///< Figure 8 walk, runtime delaying rule (see delayed.hpp)
};

/// Language-independent offline detection: runs Figure 6 over the walk of
/// `d`, where ops[v] lists vertex v's accesses in order. Reports carry the
/// vertex id in `current_task`. Requires check_diagram(d) to hold.
std::vector<RaceReport> detect_races_offline(
    const Diagram& d, const std::vector<std::vector<VertexAccess>>& ops,
    WalkMode mode = WalkMode::kNonSeparating,
    ReportPolicy policy = ReportPolicy::kAll);

}  // namespace race2d
