// LiveTaskIndex: rows for the tasks a per-task table still holds.
//
// Task ids are dense in fork order and never reused, but on §5's line only
// the unjoined tasks can still act, so a per-task table needs rows for
// those alone. The index maps an id to its row without a per-id array:
//
//   * ids forked since the last compaction (id >= base) sit at rows by
//     offset: row = carried + (id - base);
//   * the few older ids still held (the root, long-lived ancestors) are
//     `carried`: they fill rows 0..carried-1 in ascending id order and are
//     found through a small hash map.
//
// Rows are therefore in ascending id order. compact() keeps the rows a
// predicate selects, renumbers them in order and makes every kept id
// carried; a table behind the index moves its rows by the returned map.
// An id below task_count() with no row was dropped by a compaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/flat_hash_map.hpp"
#include "support/ids.hpp"
#include "support/mem_accounting.hpp"

namespace race2d {

class LiveTaskIndex {
 public:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();
  /// The smallest table that compacts. Below it a pass frees too little to
  /// pay for itself: short sessions (a few hundred tasks) would pay one
  /// every few dozen joins.
  static constexpr std::size_t kCompactionFloor = std::size_t{1} << 12;

  LiveTaskIndex() { reset(); }

  /// Ids ever added, i.e. the next fresh id.
  std::size_t task_count() const { return task_count_; }
  /// Rows held: the carried ids plus every id forked since the last pass.
  std::size_t rows() const { return carried_.size() + (task_count_ - base_); }

  /// The row of `id`, or kNoRow when it was never added or was dropped.
  /// One compare serves the ids forked since the last compaction.
  std::uint32_t row(TaskId id) const {
    if (id - base_ < task_count_ - base_)  // base_ <= id < task_count_
      return static_cast<std::uint32_t>(id - dropped_);
    return carried_row(id);
  }

  /// The id at `row` (row < rows()).
  TaskId id_at(std::uint32_t row) const {
    return row < carried_.size()
               ? carried_[row]
               : static_cast<TaskId>(base_ + (row - carried_.size()));
  }

  /// Back to an index that holds no id, keeping the carried-row table's
  /// buffer.
  void reset() {
    task_count_ = 0;
    carry({}, 0);
  }

  /// Adds the next id; its row is the last one.
  TaskId add() {
    R2D_REQUIRE(task_count_ < kInvalidTask, "task id space exhausted");
    return static_cast<TaskId>(task_count_++);
  }

  /// Keeps the rows `keep(row)` selects, renumbered in order, and returns
  /// the map from each old row to its new one (kNoRow when dropped).
  /// Afterwards every kept id is carried and new ids start at task_count().
  template <typename Keep>
  std::vector<std::uint32_t> compact(Keep&& keep) {
    const std::size_t n = rows();
    std::vector<std::uint32_t> remap(n, kNoRow);
    std::vector<TaskId> kept;
    for (std::size_t r = 0; r < n; ++r) {
      if (!keep(static_cast<std::uint32_t>(r))) continue;
      remap[r] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(id_at(static_cast<std::uint32_t>(r)));
    }
    carry(std::move(kept), task_count_);
    return remap;
  }

  /// Plain-data image for snapshots: rows are `carried` (ascending, all
  /// below `base`) followed by the ids base..task_count-1.
  struct State {
    std::uint64_t task_count = 0;
    std::uint64_t base = 0;
    std::vector<TaskId> carried;
  };
  State export_state() const { return {task_count_, base_, carried_}; }
  /// Replaces the index. `s` must be validated first (the snapshot codec
  /// answers K007); this re-checks the same invariants.
  void import_state(State&& s) {
    R2D_REQUIRE(s.base <= s.task_count && s.task_count <= kInvalidTask,
                "task index base beyond its task count");
    for (std::size_t i = 0; i < s.carried.size(); ++i)
      R2D_REQUIRE(s.carried[i] < s.base &&
                      (i == 0 || s.carried[i - 1] < s.carried[i]),
                  "carried task ids must ascend below the base");
    task_count_ = static_cast<std::size_t>(s.task_count);
    carry(std::move(s.carried), static_cast<std::size_t>(s.base));
  }

  std::size_t heap_bytes() const {
    return vector_heap_bytes(carried_) + carried_rows_.heap_bytes();
  }

 private:
  /// row() for an id below base_ or past task_count_.
  std::uint32_t carried_row(TaskId id) const;
  void carry(std::vector<TaskId>&& ids, std::size_t base) {
    carried_ = std::move(ids);
    base_ = base;
    dropped_ = base - carried_.size();
    carried_rows_.clear();
    carried_rows_.reserve(carried_.size());
    for (std::size_t r = 0; r < carried_.size(); ++r)
      carried_rows_[carried_[r]] = static_cast<std::uint32_t>(r);
  }

  // The three counts start as reset() sets them.
  std::size_t task_count_;
  std::size_t base_;
  std::size_t dropped_;  ///< ids below base_ with no row
  std::vector<TaskId> carried_;  ///< ascending, all below base_
  FlatHashMap<TaskId, std::uint32_t> carried_rows_{4};
};

}  // namespace race2d
