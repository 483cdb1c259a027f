// Labeled disjoint-set union — the exact structure the paper's Walk uses.
//
// The paper (§3, Figure 5) requires:
//   Find(x)     — return the *label* of the set containing x, where the
//                 label is the root of the corresponding last-arc tree;
//   Union(y, x) — merge the sets containing y and x "under the label of the
//                 set containing y".
// Labels are kept per internal DSU root and rewritten on merge, so union by
// rank stays available and the Tarjan bound applies (Theorems 3 and 5).
// Alongside the label we keep the paper's per-vertex `visited` flag
// (set by loops, cleared by stop-arcs, Figure 8) since every algorithm that
// needs the labels also needs the flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/ids.hpp"

namespace race2d {

class LabeledUnionFind {
 public:
  LabeledUnionFind() = default;
  explicit LabeledUnionFind(std::size_t n) { grow_to(n); }

  /// Ensures elements 0..n-1 exist; each new element forms the singleton
  /// set {x} labeled x, unvisited.
  void grow_to(std::size_t n);

  /// Adds one fresh element (singleton labeled by itself, unvisited).
  std::uint32_t add();

  /// Label of the set containing x — the paper's Find(x). Inline: this is
  /// the detector's per-access hot path (one call per Sup query).
  std::uint32_t find_label(std::uint32_t x) { return label_[find_root(x)]; }

  /// Merge the sets of `keep` and `absorb`; the merged set takes the label
  /// of `keep`'s set — the paper's Union(keep, absorb). The label handoff
  /// reuses the roots computed for the link step (no re-find).
  void merge_into(std::uint32_t keep, std::uint32_t absorb) {
    std::uint32_t rk = find_root(keep);
    std::uint32_t ra = find_root(absorb);
    if (rk == ra) return;
    const std::uint32_t kept_label = label_[rk];
    if (rank_[rk] < rank_[ra]) std::swap(rk, ra);
    parent_[ra] = rk;
    if (rank_[rk] == rank_[ra]) ++rank_[rk];
    label_[rk] = kept_label;  // label travels with `keep`'s set, not the rank winner
  }

  /// Relabels the set containing x (used by the SP-bags baseline to retag a
  /// whole bag in O(α)).
  void set_label(std::uint32_t x, std::uint32_t label) {
    label_[find_root(x)] = label;
  }

  bool same_set(std::uint32_t a, std::uint32_t b) {
    return find_root(a) == find_root(b);
  }

  bool visited(std::uint32_t x) const { return visited_[x] != 0; }
  void set_visited(std::uint32_t x, bool value) { visited_[x] = value ? 1 : 0; }

  std::size_t element_count() const { return parent_.size(); }

  /// Drops every element, keeping the buffers.
  void clear() {
    parent_.clear();
    rank_.clear();
    label_.clear();
    visited_.clear();
  }

  /// Rebuilds the structure as singletons of the elements `remap` keeps:
  /// old element x becomes remap[x] (kept elements in ascending order, so
  /// remap[x] <= x; a dropped one maps to kInvalidVertex), labeled by
  /// itself, with its visited flag. Shrinks to `kept` elements.
  void retain(const std::vector<std::uint32_t>& remap, std::size_t kept);

  /// Plain-data image of the whole structure — what a session snapshot
  /// serializes. The four vectors are index-parallel.
  struct State {
    std::vector<std::uint32_t> parent;
    std::vector<std::uint8_t> rank;
    std::vector<std::uint32_t> label;
    std::vector<std::uint8_t> visited;
  };
  State export_state() const { return {parent_, rank_, label_, visited_}; }
  /// Replaces the structure wholesale. The snapshot codec validates shape
  /// (equal lengths, parents/labels in range) before calling; this only
  /// re-checks the cheap invariants.
  void import_state(State&& s);

  /// Heap bytes (for E2 accounting: this is the detector's per-thread state).
  std::size_t heap_bytes() const;

 private:
  std::uint32_t find_root(std::uint32_t x) {
    R2D_ASSERT(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<std::uint32_t> label_;  ///< meaningful at internal roots only
  std::vector<std::uint8_t> visited_;
};

}  // namespace race2d
