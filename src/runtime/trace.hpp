// Execution traces: record a serial fork-first run, replay it into any
// listener, and materialize the vertex-level task graph (§5, Theorem 6's
// construction) as a monotone planar diagram.
//
// The task graph is where everything meets: the naive/oracle baselines
// answer reachability on it, Theorem 6 tests check it is a 2D lattice, and
// the offline detector runs over it for differential testing against the
// online one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "lattice/diagram.hpp"
#include "runtime/listener.hpp"

namespace race2d {

enum class TraceOp : std::uint8_t {
  kFork,
  kJoin,
  kHalt,
  kSync,
  kRead,
  kWrite,
  kRetire,
  kFinishBegin,
  kFinishEnd,
  // Sync-object annotations (mutexes and counting semaphores). Appended
  // after kFinishEnd so the binary opcodes of every pre-existing op — and
  // therefore the encoded bytes of lock-free traces — are unchanged. Like
  // kSync they are vertex-less: no task-graph vertex, no HB arc; lock
  // semantics enter detection only through lockset refinement.
  kAcquire,
  kRelease,
};

// Sync-object ids share the Loc space; kSemaphoreBit / is_semaphore_id in
// support/ids.hpp distinguish counting semaphores from mutexes.

struct TraceEvent {
  TraceOp op;
  TaskId actor = kInvalidTask;
  TaskId other = kInvalidTask;  ///< forked child / joined task
  Loc loc = 0;                  ///< for reads and writes

  bool operator==(const TraceEvent&) const = default;
};

using Trace = std::vector<TraceEvent>;

/// Records every event of a serial run.
class TraceRecorder : public ExecutionListener {
 public:
  void on_fork(TaskId parent, TaskId child) override {
    events_.push_back({TraceOp::kFork, parent, child, 0});
  }
  void on_join(TaskId joiner, TaskId joined) override {
    events_.push_back({TraceOp::kJoin, joiner, joined, 0});
  }
  void on_halt(TaskId t) override {
    events_.push_back({TraceOp::kHalt, t, kInvalidTask, 0});
  }
  void on_sync(TaskId t) override {
    events_.push_back({TraceOp::kSync, t, kInvalidTask, 0});
  }
  void on_read(TaskId t, Loc loc) override {
    events_.push_back({TraceOp::kRead, t, kInvalidTask, loc});
  }
  void on_write(TaskId t, Loc loc) override {
    events_.push_back({TraceOp::kWrite, t, kInvalidTask, loc});
  }
  void on_retire(TaskId t, Loc loc) override {
    events_.push_back({TraceOp::kRetire, t, kInvalidTask, loc});
  }
  void on_finish_begin(TaskId t) override {
    events_.push_back({TraceOp::kFinishBegin, t, kInvalidTask, 0});
  }
  void on_finish_end(TaskId t) override {
    events_.push_back({TraceOp::kFinishEnd, t, kInvalidTask, 0});
  }
  void on_acquire(TaskId t, Loc sync_id) override {
    events_.push_back({TraceOp::kAcquire, t, kInvalidTask, sync_id});
  }
  void on_release(TaskId t, Loc sync_id) override {
    events_.push_back({TraceOp::kRelease, t, kInvalidTask, sync_id});
  }

  const Trace& trace() const { return events_; }
  Trace take() { return std::move(events_); }

 private:
  Trace events_;
};

/// Replays a recorded trace into `listener` (e.g. to drive a baseline
/// detector from the identical event stream the online detector saw).
void replay_trace(const Trace& trace, ExecutionListener& listener);

/// Applies one trace event to a detector with the thread-level event API:
/// on_fork(parent) returning the child's id, on_join, on_halt, on_read and
/// on_write. The hooks only some detectors have — on_retire, on_sync,
/// on_finish_begin, on_finish_end — are called when declared and skipped
/// otherwise. Lock annotations reach no detector: lockset semantics live in
/// verify/lockset_filter. Returns false iff the event is a fork whose
/// assigned child id differs from e.other (task ids not dense in fork
/// order). The offline drivers, the session feed, the differential panel
/// and the benches all replay through here, so they cannot drift apart.
template <typename Detector>
bool apply_event(Detector& det, const TraceEvent& e) {
  switch (e.op) {
    case TraceOp::kFork:
      return det.on_fork(e.actor) == e.other;
    case TraceOp::kJoin:
      det.on_join(e.actor, e.other);
      break;
    case TraceOp::kHalt:
      det.on_halt(e.actor);
      break;
    case TraceOp::kRead:
      det.on_read(e.actor, e.loc);
      break;
    case TraceOp::kWrite:
      det.on_write(e.actor, e.loc);
      break;
    case TraceOp::kRetire:
      if constexpr (requires { det.on_retire(e.actor, e.loc); })
        det.on_retire(e.actor, e.loc);
      break;
    case TraceOp::kSync:
      if constexpr (requires { det.on_sync(e.actor); }) det.on_sync(e.actor);
      break;
    case TraceOp::kFinishBegin:
      if constexpr (requires { det.on_finish_begin(e.actor); })
        det.on_finish_begin(e.actor);
      break;
    case TraceOp::kFinishEnd:
      if constexpr (requires { det.on_finish_end(e.actor); })
        det.on_finish_end(e.actor);
      break;
    case TraceOp::kAcquire:
    case TraceOp::kRelease:
      break;
  }
  return true;
}

/// The vertex-level task graph of a serial fork-first trace.
struct TaskGraph {
  Diagram diagram;
  /// ops[v]: memory accesses performed at vertex v (0 or 1 for traces).
  std::vector<std::vector<VertexAccess>> ops;
  /// The task each vertex belongs to.
  std::vector<TaskId> task_of_vertex;
  VertexId source = kInvalidVertex;  ///< root's begin vertex
  VertexId sink = kInvalidVertex;    ///< root's halt vertex
  std::size_t task_count = 0;
  /// vertex_of_event[i]: the vertex of trace event i's transition (fork,
  /// join, halt or access), or kInvalidVertex for an annotation (sync,
  /// finish markers, acquire/release). Every vertex but the source is
  /// exactly one event's. This is the one vertex numbering of a trace.
  std::vector<VertexId> vertex_of_event;
};

/// Builds the task graph per Theorem 6's construction: one vertex per
/// transition (plus the root's begin vertex); step/fork/join/halt arcs in
/// execution order, so out-arc fans are in left-to-right planar order.
/// Requires a trace recorded from a serial fork-first run whose root joined
/// every remaining task before halting (single sink).
TaskGraph build_task_graph(const Trace& trace);

}  // namespace race2d
