#include "runtime/trace.hpp"

#include "support/assert.hpp"

namespace race2d {

TaskGraph build_task_graph(const Trace& trace) {
  TaskGraph tg;

  // cur[t]: the most recent vertex of task t (for a freshly forked child,
  // the parent's fork vertex — the child's first vertex hangs below it).
  std::vector<VertexId> cur;
  std::vector<VertexId> halt_vertex;
  auto ensure_task = [&](TaskId t) {
    if (t >= cur.size()) {
      cur.resize(t + 1, kInvalidVertex);
      halt_vertex.resize(t + 1, kInvalidVertex);
    }
  };

  auto new_vertex = [&tg](TaskId owner) {
    const VertexId v = tg.diagram.add_vertex();
    tg.ops.emplace_back();
    tg.task_of_vertex.push_back(owner);
    return v;
  };

  // Root begin vertex (the unique source). The root is task 0 by the
  // executor's numbering convention.
  ensure_task(0);
  tg.source = new_vertex(0);
  cur[0] = tg.source;
  tg.task_count = 1;

  auto advance = [&](TaskId t) {
    R2D_REQUIRE(t < cur.size() && cur[t] != kInvalidVertex,
                "trace event by an unknown task");
    R2D_REQUIRE(halt_vertex[t] == kInvalidVertex, "trace event after halt");
    const VertexId v = new_vertex(t);
    tg.diagram.add_arc(cur[t], v);
    cur[t] = v;
    return v;
  };

  tg.vertex_of_event.reserve(trace.size());
  for (const TraceEvent& e : trace) {
    VertexId v = kInvalidVertex;
    switch (e.op) {
      case TraceOp::kFork:
        v = advance(e.actor);  // the fork transition
        ensure_task(e.other);
        R2D_REQUIRE(cur[e.other] == kInvalidVertex, "task forked twice");
        cur[e.other] = v;  // child's first vertex will attach below v
        ++tg.task_count;
        break;
      case TraceOp::kJoin:
        R2D_REQUIRE(e.other < halt_vertex.size() &&
                        halt_vertex[e.other] != kInvalidVertex,
                    "join of a task that has not halted in the trace");
        v = new_vertex(e.actor);
        // The joined task is drawn left of the joiner: its halt arc is the
        // left in-arc; then the joiner's step arc.
        tg.diagram.add_arc(halt_vertex[e.other], v);
        tg.diagram.add_arc(cur[e.actor], v);
        cur[e.actor] = v;
        break;
      case TraceOp::kHalt:
        v = advance(e.actor);
        halt_vertex[e.actor] = v;
        break;
      case TraceOp::kRead:
        v = advance(e.actor);
        tg.ops[v].push_back({e.loc, AccessKind::kRead});
        break;
      case TraceOp::kWrite:
        v = advance(e.actor);
        tg.ops[v].push_back({e.loc, AccessKind::kWrite});
        break;
      case TraceOp::kRetire:
        v = advance(e.actor);
        tg.ops[v].push_back({e.loc, AccessKind::kRetire});
        break;
      case TraceOp::kSync:
      case TraceOp::kFinishBegin:
      case TraceOp::kFinishEnd:
      case TraceOp::kAcquire:
      case TraceOp::kRelease:
        break;  // annotations only; no vertex
    }
    tg.vertex_of_event.push_back(v);
  }

  R2D_REQUIRE(halt_vertex[0] != kInvalidVertex, "root never halted in trace");
  tg.sink = halt_vertex[0];
  return tg;
}

}  // namespace race2d
