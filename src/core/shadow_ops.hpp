// Figure 6's On-Read / On-Write / On-Retire as shared inline routines, with
// the owner-epoch fast path on the shadow cell.
//
// Two detectors run this exact per-access logic — OnlineRaceDetector
// (thread-collapsed) and StreamingLatticeDetector (vertex-level). Keeping
// the logic in one place is what keeps the two reviewably the same. Each
// routine takes the accessing task twice: `t` is its engine slot, which the
// cell stores and the Sup queries use, and `id` is what reports carry.
// OnlineRaceDetector renumbers slots when it compacts; the vertex-level
// detector passes its vertex for both.
//
// Owner-epoch fast path. After an access by t that reports no race, both
// suprema of the cell are ordered before t and fold to t under the Sup
// update (R[loc] ← Sup(R[loc], t) = t, and likewise W on a write). The cell
// then caches epoch_task = t, and a later access by t skips both Sup
// queries. The cache needs no version stamp, because while epoch_task == t
// every prior access to the cell is ⊑ an earlier step of t:
//
//   * epoch_task == t means the last slow-path access to the cell was a
//     clean access by t, whose prior accesses were all ⊑ t at that step;
//   * every later access to the cell was also by t: an access by any other
//     task misses the cache, takes the slow path and overwrites or clears
//     epoch_task;
//   * an earlier step of t is ⊑ its current step (program order), whatever
//     structural events — t's forks, its children's halts, t's joins — came
//     in between.
//
// So the slow path would find every prior access ⊑ t again, and its only
// state change would be folding the accessed supremum to t — which the fast
// path performs directly. A vertex-level walk accesses a vertex only while
// visiting it, so there the cache serves just that visit. Racing accesses
// never populate the cache (they must keep re-querying: a join can order
// them later).
#pragma once

#include <cstddef>

#include "core/access_history.hpp"
#include "core/report.hpp"
#include "core/suprema_walk.hpp"
#include "support/ids.hpp"

namespace race2d::detail {

/// Fault injection for the fuzzer's self-test (race2d_fuzz --inject-bug and
/// fuzz_selftest): when set, shadow_write skips the W[loc] ← Sup(W[loc], t)
/// update — the classic "one missing sup() update" detector bug. Serial
/// and streaming replay share this routine, so they go wrong IDENTICALLY;
/// only the independent oracles (DePa, naive gold, offline walks, vector
/// clocks) can expose the lie, which is exactly what the differential
/// driver must demonstrate. Plain bool by design: set once
/// before any replay starts, never flipped concurrently.
inline bool g_inject_skip_write_sup_update = false;

inline bool epoch_hit(const ShadowCell& cell, VertexId t) {
  return cell.epoch_task == t;
}

/// On-Read (Figure 6 line 2–3, with the §2.3 read rule: reads race only
/// with prior writes). `ordinal` is the access index carried by reports.
inline void shadow_read(SupremaEngine& engine, ShadowCell& cell, VertexId t,
                        VertexId id, Loc loc, std::size_t ordinal,
                        RaceReporter& reporter) {
  if (epoch_hit(cell, t)) {
    cell.read_sup = t;  // Sup(R[loc], t) = t: R[loc] ⊑ t was cached
    return;
  }
  bool clean = true;
  if (cell.write_sup != kInvalidVertex && engine.sup(cell.write_sup, t) != t) {
    reporter.report({loc, id, AccessKind::kRead, AccessKind::kWrite, ordinal});
    clean = false;
  }
  // Figure 6 line 3: R[loc] ← Sup(R[loc], t).
  cell.read_sup =
      cell.read_sup == kInvalidVertex ? t : engine.sup(cell.read_sup, t);
  // Cache only the fully-ordered outcome: prior writes ⊑ t (clean) and
  // prior reads ⊑ t (the Sup update folded R[loc] to t).
  cell.epoch_task = (clean && cell.read_sup == t) ? t : kInvalidVertex;
}

/// On-Write (Figure 6 line 5–8): a write races with prior reads and writes.
inline void shadow_write(SupremaEngine& engine, ShadowCell& cell, VertexId t,
                         VertexId id, Loc loc, std::size_t ordinal,
                         RaceReporter& reporter) {
  if (epoch_hit(cell, t)) {
    cell.write_sup = t;  // Sup(W[loc], t) = t: W[loc] ⊑ t was cached
    return;
  }
  bool clean = true;
  if (cell.read_sup != kInvalidVertex && engine.sup(cell.read_sup, t) != t) {
    reporter.report({loc, id, AccessKind::kWrite, AccessKind::kRead, ordinal});
    clean = false;
  } else if (cell.write_sup != kInvalidVertex &&
             engine.sup(cell.write_sup, t) != t) {
    reporter.report({loc, id, AccessKind::kWrite, AccessKind::kWrite, ordinal});
    clean = false;
  }
  if (!g_inject_skip_write_sup_update) {
    cell.write_sup =
        cell.write_sup == kInvalidVertex ? t : engine.sup(cell.write_sup, t);
  }
  cell.epoch_task = (clean && cell.write_sup == t) ? t : kInvalidVertex;
}

/// On-Retire: checked like a write (retiring live racing storage is itself a
/// defect), then the cell is dropped. Returns whether a cell existed — i.e.
/// whether the retire counted as an access.
inline bool shadow_retire(SupremaEngine& engine, AccessHistory& history,
                          VertexId t, VertexId id, Loc loc,
                          std::size_t ordinal, RaceReporter& reporter) {
  ShadowCell* cell = history.find(loc);
  if (cell == nullptr) return false;  // never accessed: nothing to retire
  if (!epoch_hit(*cell, t)) {  // cached clean verdict ⇒ no report
    if (cell->read_sup != kInvalidVertex &&
        engine.sup(cell->read_sup, t) != t) {
      reporter.report(
          {loc, id, AccessKind::kRetire, AccessKind::kRead, ordinal});
    } else if (cell->write_sup != kInvalidVertex &&
               engine.sup(cell->write_sup, t) != t) {
      reporter.report(
          {loc, id, AccessKind::kRetire, AccessKind::kWrite, ordinal});
    }
  }
  history.retire(loc);
  return true;
}

}  // namespace race2d::detail
