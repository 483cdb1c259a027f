// Static may-happen-in-parallel over skeleton concretizations.
//
// Theorem 6 makes MHP a FINITE question: a concretization's task graph is
// one 2D lattice, fixed regardless of schedule, so two dynamic region
// instances may run in parallel iff their task-graph vertices are
// incomparable (eq. 3). The engine materializes exactly that, config by
// config:
//
//   lower in kMarkers mode — one access per region instance, at a private
//   marker location, so the task graph carries ONE vertex per instance —
//   then build the Theorem-6 graph and the reachability closure. An MHP
//   query is two array lookups and one closure bit. Cost per config is
//   Θ(regions + graph), independent of how wide the symbolic access
//   intervals are: the whole point of asking the question statically.
//
// Concretizations that violate the line discipline have no task graph; the
// engine skips them (verify_discipline reports them properly) and counts
// the skips.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/oracle.hpp"
#include "runtime/trace.hpp"
#include "static/concretize.hpp"
#include "static/skeleton.hpp"

namespace race2d {

/// One concretization, fully materialized for MHP queries.
struct ConfigModel {
  SkelConfig config;
  LoweredTrace lowered;  ///< kMarkers mode; regions in serial order
  TaskGraph graph;
  std::unique_ptr<HappensBeforeOracle> oracle;
  /// region ordinal -> task-graph vertex of its marker access.
  std::vector<VertexId> region_vertex;

  /// May region instances `a` and `b` (ordinals) run in parallel?
  bool mhp(std::size_t a, std::size_t b) const {
    return oracle->concurrent(region_vertex[a], region_vertex[b]);
  }
};

/// Node-level MHP answer, with the witnessing concretization when positive.
struct MhpVerdict {
  bool may = false;
  std::size_t config_index = 0;  ///< into StaticMhpEngine::models()
  std::size_t ordinal_a = 0;     ///< witnessing instance of node_a
  std::size_t ordinal_b = 0;     ///< witnessing instance of node_b

  explicit operator bool() const { return may; }
};

struct StaticMhpOptions {
  /// Strict rejects future-bearing skeletons upfront (TraceLintError with
  /// S018); relaxed lowers them under attached-futures semantics and grafts
  /// the future→get precedence arcs onto each config's task graph, making
  /// the MHP structure genuinely non-series-parallel.
  DisciplineMode mode = DisciplineMode::kStrict;
  std::size_t max_configs = 4096;
  std::size_t max_events = std::size_t{1} << 20;
  std::size_t max_future_instances = 1024;
};

class StaticMhpEngine {
 public:
  /// Builds models for every (non-violating) concretization, up to the cap.
  /// Shape errors throw TraceLintError (same contract as lower_skeleton).
  explicit StaticMhpEngine(const Skeleton& s,
                           const StaticMhpOptions& options = {});

  const std::vector<std::unique_ptr<ConfigModel>>& models() const {
    return models_;
  }
  bool truncated() const { return truncated_; }
  std::uint64_t configs_total() const { return configs_total_; }
  /// Concretizations skipped because their lowering violates the discipline.
  std::size_t skipped_configs() const { return skipped_; }

  /// Does ANY explored concretization run an instance of access-bearing
  /// node `node_a` in parallel with an instance of `node_b`? (Preorder ids;
  /// node_a == node_b asks whether the node self-overlaps, e.g. across loop
  /// iterations or pipeline items.)
  MhpVerdict may_happen_in_parallel(std::size_t node_a,
                                    std::size_t node_b) const;

 private:
  std::vector<std::unique_ptr<ConfigModel>> models_;
  bool truncated_ = false;
  std::uint64_t configs_total_ = 0;
  std::size_t skipped_ = 0;
};

/// Maps each region ordinal of a kMarkers lowering to the task-graph vertex
/// of its single marker access, read from graph.vertex_of_event (`graph` is
/// build_task_graph(trace)). Exposed for the race scan and tests.
std::vector<VertexId> region_vertices(const TaskGraph& graph,
                                      const Trace& trace,
                                      std::size_t region_count);

/// Same for a kFull lowering: region ordinal → the vertex of the region's
/// FIRST emitted access (kFull emits each region's whole interval
/// contiguously; kMarkers is the width-1 special case where this equals
/// region_vertices).
std::vector<VertexId> region_first_vertices_full(
    const TaskGraph& graph, const Trace& trace,
    const std::vector<RegionInstance>& regions);

/// Grafts the relaxed-futures precedence edges onto a Theorem-6 task graph
/// built from `trace`: one arc per FutureArc, from the producer task's halt
/// vertex to the get region's first access vertex. Because the producer
/// halts before the get event in the serial trace and every base arc also
/// points forward in trace order, the augmented diagram stays acyclic —
/// enforced here with find_cycle as a defensive invariant. Rebuild any
/// reachability oracle AFTER augmenting.
void augment_task_graph_with_futures(
    TaskGraph& graph, const Trace& trace, const std::vector<FutureArc>& arcs,
    const std::vector<VertexId>& region_first_vertex);

}  // namespace race2d
