// TraceLinter: single-pass O(n) static analysis of recorded traces.
//
// The paper's online detector is only sound on traces that satisfy the §5
// structured fork-join line discipline (Theorem 6) and arrive in serial
// fork-first (depth-first) order — the order under which the event stream IS
// the collapsed delayed non-separating traversal T'' of eq. (8). A trace
// violating either produces garbage verdicts or trips asserts mid-replay.
// The linter checks the full contract BEFORE any detector state exists:
//
//  * line discipline (Figure 9): a forked child is placed immediately left
//    of its parent; a join may only consume the immediate LEFT neighbor,
//    and only after it halted (the delayed last-arc's stop-arc discipline);
//  * actor liveness: no fork/join/read/write/retire by a halted or unknown
//    task, no double halt;
//  * traversal order: events arrive in the depth-first, left-to-right,
//    topological serial order (the actor of every event is the currently
//    running task; a forked child runs before its parent resumes; nothing
//    follows the root's halt; the trace is not truncated);
//  * dense task numbering in fork order (what TraceRecorder emits and the
//    replay drivers assume when they renumber via on_fork);
//  * balanced finish regions per task;
//  * retire hygiene (warnings): accesses to retired storage, dead retires;
//  * sync-object discipline (L017–L020): a mutex release must come from the
//    holding task, a held mutex cannot be re-acquired, tasks release before
//    halting; counting semaphores allow cross-task release (Klein–Lu–Netzer)
//    but an acquire needs a positive count or serial order would block.
//
// Diagnostics carry stable codes (see diagnostics.hpp and docs/API.md); the
// detector drivers gate on error-level findings via require_lint_clean().
//
// Cost. An event by the running task that has not halted passes every
// actor and order check at once, so it skips them; with warnings off a
// read, write, retire or sync then does no further work. Whether the
// running task halted is cached with the stack, and the stack and the line
// links hold rows, so a fork, halt or join by the running task looks up no
// id. Only the retire hygiene warnings need per-location state, so an
// errors-only linter (the gates) keeps none: its state is Θ(line + held
// mutexes + semaphores).
// A release erases its mutex and a count per holding task says how many
// each still holds, so a halt by a task that holds none is O(1). Only a
// halt that still holds a mutex, which is an L019 error, scans the held
// mutexes: a pass is O(n) on traces whose tasks release before halting,
// and the service gate, which stops a session at its first error, scans
// at most once.
//
// Per-task state is Θ(line). Rows exist only for the unjoined tasks and
// for tasks joined since the last drop, behind a LiveTaskIndex. A known
// task with no row was joined, so it reads as halted and joined, as its
// row did. Joined rows are dropped in place once they outnumber the live
// ones and the table holds at least LiveTaskIndex::kCompactionFloor rows,
// which costs O(1) amortized per join.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"
#include "support/flat_hash_map.hpp"
#include "support/live_tasks.hpp"
#include "verify/diagnostics.hpp"

namespace race2d {

struct TraceLintOptions {
  /// Stop collecting after this many diagnostics PER SEVERITY CLASS (the
  /// result is flagged truncated). A corrupt trace can cascade; the cap
  /// keeps linting O(n). Counting warnings and errors separately guarantees
  /// a warning flood (retire hygiene on a churny trace) can never mask an
  /// error-level finding further down the trace.
  std::size_t max_diagnostics = 64;
  /// Collect warning-level findings (retire hygiene). Errors always are.
  bool warnings = true;
};

/// The gate configuration: errors only (a hygiene warning must not kill a
/// live stream), stopping early, since the first few findings are all a
/// rejection carries. require_lint_clean() and every DetectionSession lint
/// with it.
inline constexpr TraceLintOptions kGateLintOptions{.max_diagnostics = 8,
                                                   .warnings = false};

/// The linter's single pass, exposed as a PUSH stream: feed() events as
/// they arrive, finish() when the stream ends. This is the form a
/// long-running ingest front (the DetectionService) gates on — an
/// error-level finding is known at the offending event, BEFORE that event
/// ever reaches a detector, with no trace materialization. State is
/// Θ(line + locations) with warnings on and Θ(line) plus the held sync
/// objects with warnings off. TraceLinter::run() is the batch driver over
/// it.
class TraceLintStream {
 public:
  explicit TraceLintStream(TraceLintOptions options = {});

  /// Lints the next event (indices auto-increment from 0). Returns
  /// ok_so_far() as a convenience. Feeding after finish() is a contract
  /// violation.
  bool feed(const TraceEvent& e);

  /// Declares end-of-trace: emits the end-of-input findings (truncation,
  /// unjoined tasks). Idempotent.
  void finish();

  /// Shim: perfbench/src/traced.cpp is its only caller, and ROADMAP item 1
  /// deletes it. Fast-forwards the event index past `extra` repetitions of
  /// a clean template whose FIRST repetition was just fed. Sound for pure
  /// read/write runs: re-linting an access the linter already accepted is
  /// idempotent on its state (the location, if tracked, stays tracked; no
  /// task/mutex state moves), so only the running index needs to advance —
  /// diagnostics from later events keep exact indices.
  void note_replayed(std::uint64_t extra) {
    index_ += static_cast<std::size_t>(extra);
  }

  /// True while no error-level diagnostic has been emitted.
  bool ok_so_far() const { return errors_emitted_ == 0; }
  std::size_t events_seen() const { return index_; }
  const LintResult& result() const { return result_; }
  LintResult take() { return std::move(result_); }

  /// Resident heap footprint of the lint state (service quota accounting):
  /// vector capacities and hash-table slot arrays, empty tables included.
  std::size_t memory_bytes() const;

  /// One unjoined task of a snapshot's line.
  struct LineTask {
    TaskId id = kInvalidTask;
    TaskId left = kInvalidTask;  ///< immediate left neighbor on the line
    TaskId right = kInvalidTask;
    std::uint32_t finish_depth = 0;
    bool halted = false;
  };

  /// Snapshot image of a CLEAN mid-stream linter: export requires an
  /// unfinished stream that has found nothing, and import starts one. (The
  /// service only snapshots unpoisoned sessions, whose errors-only gate
  /// therefore carries no diagnostics.) Only the line is kept: every other
  /// task below task_count was joined.
  struct Snapshot {
    std::uint64_t index = 0;
    std::uint64_t task_count = 0;  ///< tasks introduced, the root included
    std::vector<LineTask> line;    ///< ascending ids, all below task_count
    std::vector<TaskId> stack;     ///< ids on the line
    /// Location states; empty from a linter with warnings off, and dropped
    /// on import into one.
    std::vector<std::pair<Loc, std::uint8_t>> locs;
    /// Held mutexes (sync id → holding task) and semaphore counts. Import
    /// reads a holder of kInvalidTask as released; for a repeated id the
    /// last entry wins.
    std::vector<std::pair<Loc, TaskId>> mutexes;
    std::vector<std::pair<Loc, std::uint64_t>> semaphores;
  };
  Snapshot export_state() const;
  void import_state(Snapshot&& s);

 private:
  /// Tables start at the smallest size: most streams leave them empty.
  static constexpr std::size_t kMinSlots = 4;

  static constexpr std::uint32_t kNoRow = LiveTaskIndex::kNoRow;

  /// A row of the task table: a task on the line, or one joined since the
  /// last drop (task_index_.id_at names it). The line links hold rows, so
  /// walking the line and serving the running task look up no id.
  struct TaskState {
    std::uint32_t left = kNoRow;  ///< row of the immediate left neighbor
    std::uint32_t right = kNoRow;
    std::uint32_t finish_depth = 0;
    bool halted = false;
    bool joined = false;  ///< removed from the line by a join
  };
  /// A running task with its row.
  struct Running {
    TaskId id = kInvalidTask;
    std::uint32_t row = kNoRow;
  };

  template <typename Fn>
  void emit(LintCode code, std::size_t index, Fn&& compose,
            const char* hint = "");
  bool known(TaskId t) const { return t < task_index_.task_count(); }
  /// The row of an admitted actor: the running task's comes with the stack
  /// (which admit() guarantees is not empty).
  std::uint32_t actor_row(TaskId t) const {
    return stack_.back().id == t ? stack_.back().row : task_index_.row(t);
  }
  /// The row of a known task, or nullptr once its row was dropped.
  TaskState* find(TaskId t) {
    const std::uint32_t row = task_index_.row(t);
    return row == kNoRow ? nullptr : &tasks_[row];
  }
  void drop_joined_rows();
  /// Re-reads whether the task on top of the stack halted, after the stack
  /// changed.
  void refresh_top();
  /// The actor and order checks; false when they reject the event.
  bool admit(std::size_t i, const TraceEvent& e);
  void on_fork(std::size_t i, const TraceEvent& e);
  void on_join(std::size_t i, const TraceEvent& e);
  void on_halt(std::size_t i, const TraceEvent& e);
  void on_access(std::size_t i, const TraceEvent& e);
  void on_retire(std::size_t i, const TraceEvent& e);
  void on_acquire(std::size_t i, const TraceEvent& e);
  void on_release(std::size_t i, const TraceEvent& e);

  TraceLintOptions options_;
  LintResult result_;
  std::size_t index_ = 0;
  bool finished_ = false;
  std::size_t warnings_emitted_ = 0;
  std::size_t errors_emitted_ = 0;
  LiveTaskIndex task_index_;
  std::vector<TaskState> tasks_;  ///< rows, in ascending id order
  std::size_t joined_rows_ = 0;
  std::vector<Running> stack_;  ///< running tasks, innermost (current) last
  bool top_halted_ = false;    ///< the task on top of stack_ halted
  /// Per-location retire state; filled only with warnings on.
  FlatHashMap<Loc, std::uint8_t> locs_{kMinSlots};
  /// Held mutexes only (a release erases its entry) with their holders,
  /// how many each holding task holds, and semaphore counts. Lock-free
  /// traces never touch any of the three.
  FlatHashMap<Loc, TaskId> mutexes_{kMinSlots};
  FlatHashMap<TaskId, std::uint32_t> held_counts_{kMinSlots};
  FlatHashMap<Loc, std::uint64_t> semaphores_{kMinSlots};
};

class TraceLinter {
 public:
  explicit TraceLinter(TraceLintOptions options = {}) : options_(options) {}

  /// Lints `trace` in one pass (see the file comment for its cost).
  LintResult run(const Trace& trace) const;

 private:
  TraceLintOptions options_;
};

/// One-call form with default options.
LintResult lint_trace(const Trace& trace);

/// Whether gated entry points enforce the linter. kSkip exists for callers
/// that already linted the identical trace (or measure the detector alone);
/// it does NOT relax the documented precondition — an unlinted malformed
/// trace still yields garbage verdicts.
enum class LintGate : std::uint8_t { kEnforce, kSkip };

/// Throws TraceLintError when `trace` has error-level findings.
void require_lint_clean(const Trace& trace);

}  // namespace race2d
