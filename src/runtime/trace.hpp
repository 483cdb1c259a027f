// Execution traces: the event alphabet and its one name table; record a
// serial fork-first run, apply its events to any detector, and materialize
// the vertex-level task graph (§5, Theorem 6's construction) as a monotone
// planar diagram.
//
// The task graph is where everything meets: the naive/oracle baselines
// answer reachability on it, Theorem 6 tests check it is a 2D lattice, and
// the offline detector runs over it for differential testing against the
// online one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>
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
  Loc loc = 0;  ///< accessed location / sync-object id

  bool operator==(const TraceEvent&) const = default;
};

using Trace = std::vector<TraceEvent>;

/// What a TraceOp names after its actor: another task (fork's child, the
/// joined task) in `other`, a location or sync-object id in `loc`, or
/// nothing.
enum class OpOperand : std::uint8_t { kNone, kTask, kLoc };

struct OpInfo {
  const char* name;  ///< the text format's keyword; lint messages use it too
  OpOperand operand;
};

/// The one table of the event alphabet, indexed by TraceOp. The text writer
/// and reader and the lint messages read names and operands from here; the
/// binary codec and the per-op switches (apply_event, the lint gate,
/// build_task_graph) do per-op work of their own.
inline constexpr OpInfo kOpTable[] = {
    {"fork", OpOperand::kTask},        {"join", OpOperand::kTask},
    {"halt", OpOperand::kNone},        {"sync", OpOperand::kNone},
    {"read", OpOperand::kLoc},         {"write", OpOperand::kLoc},
    {"retire", OpOperand::kLoc},       {"finish_begin", OpOperand::kNone},
    {"finish_end", OpOperand::kNone},  {"acquire", OpOperand::kLoc},
    {"release", OpOperand::kLoc},
};
static_assert(std::size(kOpTable) ==
                  static_cast<std::size_t>(TraceOp::kRelease) + 1,
              "one kOpTable row per TraceOp");

constexpr const char* op_name(TraceOp op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpTable) ? kOpTable[i].name : "?";
}

constexpr OpOperand op_operand(TraceOp op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpTable) ? kOpTable[i].operand : OpOperand::kNone;
}

/// The op whose name is `name`, or nullopt.
constexpr std::optional<TraceOp> op_from_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kOpTable); ++i)
    if (name == kOpTable[i].name) return static_cast<TraceOp>(i);
  return std::nullopt;
}

/// Records every event of a serial run.
class TraceRecorder : public ExecutionListener {
 public:
  void on_event(const TraceEvent& e) override { events_.push_back(e); }

  const Trace& trace() const { return events_; }
  Trace take() { return std::move(events_); }

 private:
  Trace events_;
};

/// Applies one trace event to a detector with the thread-level event API:
/// on_fork(parent) returning the child's id, on_join, on_halt, on_read and
/// on_write. The hooks only some detectors have — on_retire, on_sync,
/// on_finish_begin, on_finish_end — are called when declared and skipped
/// otherwise. Lock annotations reach no detector: lockset semantics live in
/// verify/lockset_filter. Returns false iff the event is a fork whose
/// assigned child id differs from e.other (task ids not dense in fork
/// order). This is the one dispatch from a TraceOp to a detector: offline
/// replay (core/replay.hpp), the session feed, DetectorListener, the
/// differential panel and the benches all go through here, so they cannot
/// drift apart.
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
