// DePa-style order-maintenance timestamps for structured fork-join tasks.
//
// The paper's central structural fact is that the task graphs of §5
// programs are 2D lattices: the happens-before order is exactly the
// intersection of TWO linear orders (Theorem 6; lattice/realizer.cpp
// certifies this offline via a Dushnik–Miller 2-realizer). This module
// maintains those two linear orders ONLINE, in the style of DePa
// (arXiv 2204.14168) and SP-order: every task *interval* — a maximal run
// of operations between structural events — is an element of two
// order-maintenance lists,
//
//   E, the fork-first ("English") linear extension: a forked child's
//      intervals come before the parent's continuation, and
//   H, the fork-last ("Hebrew") linear extension: the parent's
//      continuation comes before the forked child's intervals,
//
// and u happens-before v  ⟺  u <_E v  AND  u <_H v. Concurrency is
// exactly E/H disagreement — the two traversal directions of the planar
// diagram pull incomparable intervals apart.
//
// Each list is doubly linked and every element carries a 64-bit tag that
// increases along the list, so a precedence query is two integer compares.
// A new interval takes the midpoint of the tag gap after its anchor, or a
// fixed stride past the last element when it is appended at the end: both
// lists grow at their ends as a program forks and joins in sequence, and
// halving the rest of the universe there would fill it within a few dozen
// appends. When a gap is full, the relabel of Bender et al. ("Two
// simplified algorithms for maintaining order in a list", ESA 2002) grows
// an aligned tag range around the anchor until it is sparse enough and
// spreads the range's elements evenly over it — amortized O(log n) tag
// writes per insertion. Relabeling moves tags but never the order, so
// every verdict drawn from an earlier comparison stays valid. An interval
// is a fixed Θ(1) bytes however deep the program runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "support/assert.hpp"

namespace race2d {

struct OmInterval;

/// One interval's place in one list: its tag and its neighbors.
struct OmLink {
  std::uint64_t tag = 0;
  OmInterval* prev = nullptr;
  OmInterval* next = nullptr;
};

/// One task interval: the timestamp unit, an element of both lists.
struct OmInterval {
  OmLink e;
  OmLink h;
};

/// The two-list clock: allocates intervals and applies the structural
/// rules. Queries are O(1); fork and join are amortized O(log n).
class OmClock {
 public:
  /// Tags lie in [0, kUniverse). The root holds tag 0 in both lists and
  /// stays first, because every insertion goes after an existing interval.
  static constexpr unsigned kTagBits = 62;
  static constexpr std::uint64_t kUniverse = std::uint64_t{1} << kTagBits;

  OmClock() = default;
  OmClock(const OmClock&) = delete;
  OmClock& operator=(const OmClock&) = delete;

  /// Selects a list: &OmInterval::e or &OmInterval::h.
  using List = OmLink OmInterval::*;

  /// Links the unlinked `y` right after `x` in `list` and gives it a tag:
  /// the primitive both structural rules are built from.
  static void insert_after(List list, OmInterval* x, OmInterval* y);

  /// The root task's first interval (both lists start with it).
  OmInterval* make_root();

  struct ForkResult {
    OmInterval* child;         ///< the forked child's first interval
    OmInterval* continuation;  ///< the parent's post-fork interval
  };
  /// fork: in E insert child then continuation after the parent's current
  /// interval (child-first); in H insert continuation then child
  /// (continuation-first).
  ForkResult on_fork(OmInterval* parent_cur);

  /// join: the joiner's post-join interval goes right after its current
  /// interval in E, and right after max_H(joiner, joined's last interval)
  /// in H — after the join edge's source, which is what orders the joined
  /// task's whole subtree before the continuation in both lists.
  OmInterval* on_join(OmInterval* joiner_cur, OmInterval* joined_last);

  /// u happens-before-or-equals v: tag agreement in both dimensions.
  static bool ordered_before(const OmInterval* u, const OmInterval* v) {
    if (u == v) return true;
    return u->e.tag < v->e.tag && u->h.tag < v->h.tag;
  }

  /// Calls fn(index, interval_ptr) over the arena in allocation order.
  /// Allocation order is deterministic (one interval per structural event),
  /// so the index is a stable cross-process name for an interval — what the
  /// session snapshot stores instead of the pointer.
  template <typename Fn>
  void for_each_interval(Fn&& fn) const {
    std::size_t i = 0;
    for (const OmInterval& iv : arena_) fn(i++, &iv);
  }

  /// The interval at allocation index `i` (restore-time pointer recovery).
  OmInterval* interval_at(std::size_t i) {
    R2D_ASSERT(i < arena_.size());
    return &arena_[i];
  }

  /// Plain-data image: the two tags of every interval, in allocation order.
  /// The links are implied by the tags.
  struct Tags {
    std::uint64_t e = 0;
    std::uint64_t h = 0;
  };
  struct State {
    std::vector<Tags> intervals;
  };
  State export_state() const;
  /// Rebuilds the arena from `s` and links each list by sorting on its
  /// tags. Requires an empty clock. Returns false, leaving the clock empty,
  /// when a tag lies outside the universe or repeats within a list.
  [[nodiscard]] bool import_state(const State& s);

  /// Heap bytes of the clock: Θ(1) per interval.
  std::size_t heap_bytes() const { return arena_.size() * sizeof(OmInterval); }

 private:
  OmInterval* alloc() { return &arena_.emplace_back(); }

  std::deque<OmInterval> arena_;  ///< stable addresses
};

}  // namespace race2d
