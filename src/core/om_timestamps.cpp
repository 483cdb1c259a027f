#include "core/om_timestamps.hpp"

#include <algorithm>

namespace race2d {

namespace {

// The gap an append at a list's end leaves behind it: room for 2^30
// appends, and for 32 halvings inside each gap before a relabel.
constexpr std::uint64_t kTailStride = std::uint64_t{1} << 32;

// Bender et al.'s density threshold T = √2 (their analysis needs 1 < T < 2):
// an aligned range of 2^b tags may be relabeled once it holds at most
// 2^(b/2) intervals, i.e. count² ≤ 2^b. Evenly spread, such a range leaves
// a gap of at least 2 after every element.
bool sparse(std::uint64_t count, std::uint64_t span) {
  return count < (std::uint64_t{1} << 31) && count * count <= span;
}

/// Called when `y`, just linked after `x`, finds no free tag before its
/// successor: grows an aligned tag range around x's tag until it is sparse
/// and spreads the range's intervals, y included, evenly over it.
void relabel(OmClock::List list, OmInterval* x, OmInterval* y) {
  const std::uint64_t anchor = (x->*list).tag;
  OmInterval* first = x;
  OmInterval* last = y;
  std::uint64_t count = 2;
  std::uint64_t lo = anchor;
  std::uint64_t span = 1;
  for (unsigned bits = 1;; ++bits) {
    span = std::uint64_t{1} << bits;
    lo = anchor & ~(span - 1);
    for (OmInterval* p = (first->*list).prev;
         p != nullptr && (p->*list).tag >= lo; p = (p->*list).prev) {
      first = p;
      ++count;
    }
    for (OmInterval* n = (last->*list).next;
         n != nullptr && (n->*list).tag < lo + span; n = (n->*list).next) {
      last = n;
      ++count;
    }
    // The whole universe is the last resort; it always has room.
    if (bits == OmClock::kTagBits || sparse(count, span)) break;
  }
  const std::uint64_t gap = span / count;
  std::uint64_t tag = lo;
  for (OmInterval* v = first;; v = (v->*list).next) {
    (v->*list).tag = tag;
    tag += gap;
    if (v == last) break;
  }
}

/// Links the arena into `list` in tag order; false when a tag lies outside
/// the universe or repeats.
bool link_by_tag(std::deque<OmInterval>& arena, OmClock::List list) {
  std::vector<OmInterval*> order;
  order.reserve(arena.size());
  for (OmInterval& iv : arena) order.push_back(&iv);
  std::sort(order.begin(), order.end(),
            [list](const OmInterval* a, const OmInterval* b) {
              return (a->*list).tag < (b->*list).tag;
            });
  if (!order.empty() && (order.back()->*list).tag >= OmClock::kUniverse)
    return false;
  OmInterval* prev = nullptr;
  for (OmInterval* v : order) {
    if (prev != nullptr && (prev->*list).tag == (v->*list).tag) return false;
    (v->*list).prev = prev;
    if (prev != nullptr) (prev->*list).next = v;
    prev = v;
  }
  return true;
}

}  // namespace

void OmClock::insert_after(List list, OmInterval* x, OmInterval* y) {
  OmLink& lx = x->*list;
  OmLink& ly = y->*list;
  ly.prev = x;
  ly.next = lx.next;
  if (lx.next != nullptr) (lx.next->*list).prev = y;
  lx.next = y;
  const std::uint64_t bound =
      ly.next != nullptr ? (ly.next->*list).tag : kUniverse;
  if (bound - lx.tag >= 2) {
    const std::uint64_t half = (bound - lx.tag) / 2;
    ly.tag = lx.tag + (ly.next != nullptr ? half : std::min(half, kTailStride));
    return;
  }
  relabel(list, x, y);
}

OmInterval* OmClock::make_root() {
  // Tag 0 in both lists: first, before every later insertion.
  return alloc();
}

OmClock::ForkResult OmClock::on_fork(OmInterval* parent_cur) {
  OmInterval* c = alloc();
  OmInterval* k = alloc();
  // E (fork-first): parent, child, continuation.
  insert_after(&OmInterval::e, parent_cur, c);
  insert_after(&OmInterval::e, c, k);
  // H (fork-last): parent, continuation, child — the mirror image.
  insert_after(&OmInterval::h, parent_cur, k);
  insert_after(&OmInterval::h, k, c);
  return {c, k};
}

OmInterval* OmClock::on_join(OmInterval* joiner_cur, OmInterval* joined_last) {
  OmInterval* k = alloc();
  // E: everything the joined task ever did is already before the joiner's
  // current interval (children sort before continuations in E), so the
  // continuation goes right after the joiner's own position.
  insert_after(&OmInterval::e, joiner_cur, k);
  // H: the joined task's intervals sit AFTER the joiner's (continuations
  // sort before children in H), so the continuation must follow whichever
  // of the two join-edge sources is later — that places it after the
  // joined subtree while staying before everything previously after it.
  insert_after(&OmInterval::h,
               joiner_cur->h.tag < joined_last->h.tag ? joined_last
                                                      : joiner_cur,
               k);
  return k;
}

OmClock::State OmClock::export_state() const {
  State s;
  s.intervals.reserve(arena_.size());
  for (const OmInterval& iv : arena_) s.intervals.push_back({iv.e.tag, iv.h.tag});
  return s;
}

bool OmClock::import_state(const State& s) {
  R2D_REQUIRE(arena_.empty(), "import_state needs a fresh clock");
  for (const Tags& t : s.intervals) {
    OmInterval& iv = arena_.emplace_back();
    iv.e.tag = t.e;
    iv.h.tag = t.h;
  }
  if (link_by_tag(arena_, &OmInterval::e) &&
      link_by_tag(arena_, &OmInterval::h))
    return true;
  arena_.clear();
  return false;
}

}  // namespace race2d
