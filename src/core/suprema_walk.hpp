// The suprema-finding algorithm of §3 (Figure 5) and its event engine.
//
// SupremaEngine is the shared state machine: a labeled union–find over the
// last-arc forest plus per-vertex visited flags. Feeding it the events of a
// non-separating traversal implements Figure 5's Walk; feeding it a delayed
// traversal (stop-arcs included) implements Figure 8's Walk. Sup(x, t) is
// identical in both (Figure 8 differs from Figure 5 only in handling
// stop-arcs), and under a plain non-separating traversal it returns the TRUE
// supremum sup{x, t} by Theorem 1.
//
// Query precondition (1): x must lie in the closure of the traversal prefix
// ending in t — equivalently, x is a vertex of the last-arc forest T/(t,t)
// or t itself. Callers in this library always query with previously stored
// Sup results, which satisfy this by construction.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lattice/diagram.hpp"
#include "lattice/traversal.hpp"
#include "support/ids.hpp"
#include "unionfind/labeled_union_find.hpp"

namespace race2d {

class SupremaEngine {
 public:
  SupremaEngine() = default;
  explicit SupremaEngine(std::size_t vertex_count) { grow_to(vertex_count); }

  /// Makes vertices 0..n-1 available (online detectors grow lazily).
  void grow_to(std::size_t n) { dsu_.grow_to(n); }

  /// Adds one fresh, unvisited vertex.
  VertexId add_vertex() { return dsu_.add(); }

  std::size_t vertex_count() const { return dsu_.element_count(); }

  /// Walk line 2–3: visiting the loop (t, t). The thread-collapsed
  /// detectors re-loop the current task on every access.
  void on_loop(VertexId t) { dsu_.set_visited(t, true); }

  /// Walk line 5–6: visiting a last-arc (s, t) merges s's tree into t's,
  /// keeping t's label — Union(t, s).
  void on_last_arc(VertexId s, VertexId t) { dsu_.merge_into(t, s); }

  /// Figure 8, line 7–8: a stop-arc (s, ×) marks s unvisited so it becomes
  /// observationally equivalent to the not-yet-visited supremum.
  void on_stop_arc(VertexId s) { dsu_.set_visited(s, false); }

  /// Dispatches any traversal event (ordinary arcs are no-ops).
  void on_event(const TraversalEvent& e);

  /// Figure 5/8 Sup(x, t): find the root r of x's tree in the last-arc
  /// forest; answer t if r is visited, else r.
  VertexId sup(VertexId x, VertexId t) {
    const VertexId r = dsu_.find_label(x);
    return dsu_.visited(r) ? t : r;
  }

  /// The comparison the race detector makes: x ⊑ t, eq. (6).
  bool ordered_before(VertexId x, VertexId t) { return sup(x, t) == t; }

  /// Label of x's set in the last-arc forest — the paper's Find(x).
  VertexId label(VertexId x) { return dsu_.find_label(x); }

  /// Keeps only the vertices `remap` selects, each as a singleton with its
  /// visited flag (see LabeledUnionFind::retain).
  void retain(const std::vector<VertexId>& remap, std::size_t kept) {
    dsu_.retain(remap, kept);
  }

  bool visited(VertexId v) const { return dsu_.visited(v); }

  /// Heap bytes — the detector's Θ(1)-per-thread state (Theorem 5).
  std::size_t heap_bytes() const { return dsu_.heap_bytes(); }

  /// Snapshot image: the labeled DSU is the engine's whole state.
  using State = LabeledUnionFind::State;
  State export_state() const { return dsu_.export_state(); }
  void import_state(State&& s) { dsu_.import_state(std::move(s)); }

 private:
  LabeledUnionFind dsu_;
};

/// Batch solver mirroring Figure 5's Walk(T, Q): runs the canonical
/// non-separating traversal of `d` and invokes `q` at every vertex visit,
/// passing the engine so the callback can pose Sup queries on the fly.
template <typename Q>
void walk_suprema(const Diagram& d, Q&& q) {
  SupremaEngine engine(d.vertex_count());
  for (const TraversalEvent& e : non_separating_traversal(d)) {
    engine.on_event(e);
    if (e.kind == EventKind::kLoop) q(e.src, engine);
  }
}

/// Convenience offline API: answers each query Sup(x, t) where queries are
/// grouped by t. Queries for a vertex are answered at that vertex's visit,
/// in the given order. Every query must satisfy precondition (1).
struct SupQuery {
  VertexId x;
  VertexId t;
};
std::vector<VertexId> solve_suprema(const Diagram& d,
                                    const std::vector<SupQuery>& queries);

}  // namespace race2d
