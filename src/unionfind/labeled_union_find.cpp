#include "unionfind/labeled_union_find.hpp"

#include "support/mem_accounting.hpp"

namespace race2d {

void LabeledUnionFind::grow_to(std::size_t n) {
  const std::size_t old = parent_.size();
  if (n <= old) return;
  parent_.resize(n);
  rank_.resize(n, 0);
  label_.resize(n);
  visited_.resize(n, 0);
  for (std::size_t i = old; i < n; ++i) {
    parent_[i] = static_cast<std::uint32_t>(i);
    label_[i] = static_cast<std::uint32_t>(i);
  }
}

std::uint32_t LabeledUnionFind::add() {
  const std::uint32_t id = static_cast<std::uint32_t>(parent_.size());
  parent_.push_back(id);
  rank_.push_back(0);
  label_.push_back(id);
  visited_.push_back(0);
  return id;
}

void LabeledUnionFind::retain(const std::vector<std::uint32_t>& remap,
                              std::size_t kept) {
  R2D_REQUIRE(remap.size() == parent_.size(),
              "retain map must cover every element");
  for (std::size_t x = 0; x < remap.size(); ++x)
    if (remap[x] != kInvalidVertex) visited_[remap[x]] = visited_[x];
  parent_.resize(kept);
  rank_.assign(kept, 0);
  label_.resize(kept);
  visited_.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    parent_[i] = static_cast<std::uint32_t>(i);
    label_[i] = static_cast<std::uint32_t>(i);
  }
}

void LabeledUnionFind::import_state(State&& s) {
  const std::size_t n = s.parent.size();
  R2D_REQUIRE(s.rank.size() == n && s.label.size() == n &&
                  s.visited.size() == n,
              "union-find state vectors must be index-parallel");
  for (std::size_t i = 0; i < n; ++i)
    R2D_REQUIRE(s.parent[i] < n && s.label[i] < n,
                "union-find state parent/label out of range");
  parent_ = std::move(s.parent);
  rank_ = std::move(s.rank);
  label_ = std::move(s.label);
  visited_ = std::move(s.visited);
}

std::size_t LabeledUnionFind::heap_bytes() const {
  return vector_heap_bytes(parent_) + vector_heap_bytes(rank_) +
         vector_heap_bytes(label_) + vector_heap_bytes(visited_);
}

}  // namespace race2d
