// Shadow memory for the suprema-based detector (Figure 6).
//
// Per tracked location the detector stores exactly two vertex/task ids:
// R[loc], the supremum of all prior readers, and W[loc], the supremum of all
// prior writers. This Θ(1)-per-location cell is the entire point of the
// paper — contrast baselines/shadow state which grows with the thread count.
//
// On top of the two suprema the cell carries an *owner-epoch* fast path in
// the spirit of FastTrack's same-epoch check: `epoch_task` names the task
// whose last access found both suprema ordered before it (and folded them to
// itself). A repeat access by that task is then provably race-free and needs
// no union-find query at all; core/shadow_ops.hpp gives the argument.
// Racing accesses are never cached, so they always re-query. Three ids:
// 12 bytes, Θ(1) per location.
#pragma once

#include <cstddef>

#include "support/flat_hash_map.hpp"
#include "support/ids.hpp"

namespace race2d {

struct ShadowCell {
  VertexId read_sup = kInvalidVertex;   ///< R[loc]; invalid = no prior read
  VertexId write_sup = kInvalidVertex;  ///< W[loc]; invalid = no prior write
  VertexId epoch_task = kInvalidVertex;  ///< owner of the cached clean verdict
};

class AccessHistory {
 public:
  AccessHistory() = default;

  /// The cell for `loc`, created empty on first touch.
  ShadowCell& cell(Loc loc) { return cells_[loc]; }

  /// Lookup without creation; nullptr when the location was never accessed.
  ShadowCell* find(Loc loc) { return cells_.find(loc); }
  const ShadowCell* find(Loc loc) const { return cells_.find(loc); }

  /// Pre-sizes the table for `n` distinct live locations so replay does not
  /// pay incremental rehashes on the hot loop. Callers with a recorded
  /// trace can derive `n` from a prescan of its locations.
  void reserve(std::size_t n) { cells_.reserve(n); }

  /// Drops the cell for `loc` (shadow retirement). Returns whether a cell
  /// existed. Reclaims the slot immediately (backward-shift deletion).
  bool retire(Loc loc) { return cells_.erase(loc); }

  std::size_t location_count() const { return cells_.size(); }

  /// Calls fn(loc, cell) for every tracked location (unspecified order) —
  /// the snapshot codec's export walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    cells_.for_each(fn);
  }
  /// The same walk with the cells writable — the detector's compaction
  /// pass rewrites their suprema in place.
  template <typename Fn>
  void for_each(Fn&& fn) {
    cells_.for_each(fn);
  }

  /// Drops every cell: the table goes back to the slot count a new history
  /// has, keeping its buffer, so the cells a later walk visits come in the
  /// order a new history would visit them.
  void clear() { cells_.reset(); }

  /// Bytes of shadow state — the numerator of E2's bytes-per-location.
  std::size_t heap_bytes() const { return cells_.heap_bytes(); }

 private:
  FlatHashMap<Loc, ShadowCell> cells_;
};

}  // namespace race2d
