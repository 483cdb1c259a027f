#include "static/mhp.hpp"

#include <sstream>
#include <utility>

#include "graph/topo.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

/// The vertices of the trace's access events (reads, writes, retires), in
/// serial order. In kMarkers mode the k-th access event IS region ordinal k
/// (emit_region emits exactly one access per region, in serial order).
std::vector<VertexId> access_vertices(const TaskGraph& graph,
                                      const Trace& trace) {
  R2D_REQUIRE(graph.vertex_of_event.size() == trace.size(),
              "task graph was not built from this trace");
  std::vector<VertexId> out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp op = trace[i].op;
    if (op == TraceOp::kRead || op == TraceOp::kWrite ||
        op == TraceOp::kRetire)
      out.push_back(graph.vertex_of_event[i]);
  }
  return out;
}

}  // namespace

std::vector<VertexId> region_vertices(const TaskGraph& graph,
                                      const Trace& trace,
                                      std::size_t region_count) {
  std::vector<VertexId> out = access_vertices(graph, trace);
  R2D_REQUIRE(out.size() == region_count,
              "trace is not a kMarkers lowering of this region set");
  return out;
}

std::vector<VertexId> region_first_vertices_full(
    const TaskGraph& graph, const Trace& trace,
    const std::vector<RegionInstance>& regions) {
  // Carve the serial access vertices into the per-region runs a kFull
  // lowering emits (interval width accesses each).
  const std::vector<VertexId> accesses = access_vertices(graph, trace);
  std::vector<VertexId> out;
  out.reserve(regions.size());
  std::size_t at = 0;
  for (const RegionInstance& r : regions) {
    R2D_REQUIRE(at < accesses.size(),
                "trace is not a kFull lowering of this region set");
    out.push_back(accesses[at]);
    at += static_cast<std::size_t>(r.interval.hi - r.interval.lo) + 1;
  }
  R2D_REQUIRE(at == accesses.size(),
              "trace is not a kFull lowering of this region set");
  return out;
}

void augment_task_graph_with_futures(
    TaskGraph& graph, const Trace& trace, const std::vector<FutureArc>& arcs,
    const std::vector<VertexId>& region_first_vertex) {
  if (arcs.empty()) return;
  R2D_REQUIRE(graph.vertex_of_event.size() == trace.size(),
              "task graph was not built from this trace");
  std::vector<VertexId> halt_of(graph.task_count, kInvalidVertex);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].op != TraceOp::kHalt) continue;
    R2D_ASSERT(trace[i].actor < graph.task_count);
    halt_of[trace[i].actor] = graph.vertex_of_event[i];
  }
  for (const FutureArc& a : arcs) {
    R2D_REQUIRE(a.producer_task < halt_of.size() &&
                    halt_of[a.producer_task] != kInvalidVertex,
                "future arc names a task with no halt vertex");
    R2D_REQUIRE(a.get_region < region_first_vertex.size(),
                "future arc names a region outside the lowering");
    graph.diagram.add_arc(halt_of[a.producer_task],
                          region_first_vertex[a.get_region]);
  }
  // Every arc — base and grafted — points forward in trace-event order
  // (the producer halts before the get's read in the serial lowering), so
  // a cycle is impossible by construction; keep the check as a defensive
  // invariant since a cycle would silently corrupt every MHP verdict.
  const std::vector<VertexId> cycle = find_cycle(graph.diagram.graph());
  if (!cycle.empty()) {
    std::ostringstream os;
    os << "future/get augmentation closed a cycle through vertex "
       << cycle.front() << " (" << cycle.size() << " vertices)";
    R2D_REQUIRE(false, os.str().c_str());
  }
}

StaticMhpEngine::StaticMhpEngine(const Skeleton& s,
                                 const StaticMhpOptions& options) {
  require_valid_skeleton(s);
  if (options.mode == DisciplineMode::kStrict &&
      skeleton_traits(s).has_futures) {
    LintResult lint;
    lint.diagnostics.push_back(
        {LintCode::kSkelFuturesNeedRelaxed,
         lint_code_severity(LintCode::kSkelFuturesNeedRelaxed), 0,
         "skeleton uses future/get hand-offs, which escape the strict "
         "Figure-9 line discipline",
         "build the engine with DisciplineMode::kRelaxedFutures"});
    throw TraceLintError(std::move(lint));
  }
  ConfigSpace space = enumerate_configs(s, options.max_configs);
  truncated_ = space.truncated;
  configs_total_ = space.total;
  LowerOptions lopt;
  lopt.mode = LowerMode::kMarkers;
  lopt.discipline = options.mode;
  lopt.max_events = options.max_events;
  lopt.max_future_instances = options.max_future_instances;
  for (SkelConfig& config : space.configs) {
    LoweredTrace lowered = lower_skeleton(s, config, lopt);
    if (!lowered.ok) {
      ++skipped_;  // verify_discipline owns reporting these
      continue;
    }
    auto model = std::make_unique<ConfigModel>();
    model->config = std::move(config);
    model->lowered = std::move(lowered);
    model->graph = build_task_graph(model->lowered.trace);
    model->region_vertex =
        region_vertices(model->graph, model->lowered.trace,
                        model->lowered.regions.size());
    // Relaxed mode: graft the future→get precedence arcs BEFORE building
    // the reachability oracle, so every MHP answer sees the non-SP order.
    augment_task_graph_with_futures(model->graph, model->lowered.trace,
                                    model->lowered.future_arcs,
                                    model->region_vertex);
    model->oracle = std::make_unique<HappensBeforeOracle>(model->graph);
    models_.push_back(std::move(model));
  }
}

MhpVerdict StaticMhpEngine::may_happen_in_parallel(std::size_t node_a,
                                                   std::size_t node_b) const {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const ConfigModel& model = *models_[m];
    const std::vector<RegionInstance>& regions = model.lowered.regions;
    for (const RegionInstance& a : regions) {
      if (a.node != node_a) continue;
      for (const RegionInstance& b : regions) {
        if (b.node != node_b) continue;
        if (a.ordinal == b.ordinal) continue;
        if (model.mhp(a.ordinal, b.ordinal))
          return {true, m, a.ordinal, b.ordinal};
      }
    }
  }
  return {};
}

}  // namespace race2d
