#include "core/streaming_detector.hpp"

#include "core/shadow_ops.hpp"

namespace race2d {

void StreamingLatticeDetector::on_read(VertexId t, Loc loc) {
  ++access_count_;
  detail::shadow_read(engine_, history_.cell(loc), t, t, loc, access_count_,
                      reporter_);
}

void StreamingLatticeDetector::on_write(VertexId t, Loc loc) {
  ++access_count_;
  detail::shadow_write(engine_, history_.cell(loc), t, t, loc, access_count_,
                       reporter_);
}

void StreamingLatticeDetector::on_retire(VertexId t, Loc loc) {
  if (detail::shadow_retire(engine_, history_, t, t, loc, access_count_ + 1,
                            reporter_)) {
    ++access_count_;
  }
}

MemoryFootprint StreamingLatticeDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = history_.heap_bytes();
  f.per_task_bytes = engine_.heap_bytes();
  return f;
}

}  // namespace race2d
