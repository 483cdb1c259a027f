#include "core/depa_detector.hpp"

#include "support/assert.hpp"

namespace race2d {

TaskId DePaDetector::on_root() {
  R2D_REQUIRE(cur_.empty(), "on_root must be the first event");
  cur_.push_back(clock_.make_root());
  return 0;
}

TaskId DePaDetector::on_fork(TaskId parent) {
  R2D_REQUIRE(parent < cur_.size(), "unknown parent task");
  const TaskId child = static_cast<TaskId>(cur_.size());
  OmClock::ForkResult r = clock_.on_fork(cur_[parent]);
  cur_.push_back(r.child);
  cur_[parent] = r.continuation;
  return child;
}

void DePaDetector::on_join(TaskId joiner, TaskId joined) {
  R2D_REQUIRE(joiner < cur_.size() && joined < cur_.size(),
              "unknown task in join");
  cur_[joiner] = clock_.on_join(cur_[joiner], cur_[joined]);
}

void DePaDetector::on_halt(TaskId t) {
  // The clock needs no halt action: the task's final interval stays
  // current and is what a later join reads. (The DSU needs the stop-arc to
  // keep its line representation in step; the lists change only at fork and
  // join.)
  R2D_REQUIRE(t < cur_.size(), "unknown task in halt");
}

void DePaDetector::on_read(TaskId t, Loc loc) {
  R2D_REQUIRE(t < cur_.size(), "unknown task in read");
  ++access_count_;
  detail::depa_read(cells_[loc], cur_[t], t, loc, access_count_, reporter_);
}

void DePaDetector::on_write(TaskId t, Loc loc) {
  R2D_REQUIRE(t < cur_.size(), "unknown task in write");
  ++access_count_;
  detail::depa_write(cells_[loc], cur_[t], t, loc, access_count_, reporter_);
}

void DePaDetector::on_retire(TaskId t, Loc loc) {
  R2D_REQUIRE(t < cur_.size(), "unknown task in retire");
  DepaShadowCell* cell = cells_.find(loc);
  if (cell == nullptr) return;  // never accessed: not an access, no ordinal
  ++access_count_;
  detail::depa_retire_check(*cell, cur_[t], t, loc, access_count_, reporter_);
  cells_.erase(loc);
}

MemoryFootprint DePaDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = cells_.heap_bytes();
  f.per_task_bytes =
      clock_.heap_bytes() + cur_.capacity() * sizeof(OmInterval*);
  return f;
}

}  // namespace race2d
