#include "support/live_tasks.hpp"

namespace race2d {

// Out of line: the per-event lookups take the offset branch of row(), and
// keeping the hash probe out of them keeps that branch small.
std::uint32_t LiveTaskIndex::carried_row(TaskId id) const {
  if (id >= base_) return kNoRow;  // never added
  const std::uint32_t* r = carried_rows_.find(id);
  return r == nullptr ? kNoRow : *r;
}

}  // namespace race2d
