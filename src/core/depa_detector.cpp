#include "core/depa_detector.hpp"

#include <unordered_map>

#include "runtime/trace.hpp"
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

bool DePaDetector::try_apply_clean_run(const TraceEvent* events,
                                       std::size_t len,
                                       std::uint64_t extra_reps) {
  for (std::size_t i = 0; i < len; ++i) {
    const TraceEvent& e = events[i];
    if (e.op != TraceOp::kRead && e.op != TraceOp::kWrite) return false;
    if (e.actor >= cur_.size()) return false;
    const DepaShadowCell* cell = cells_.find(e.loc);
    if (cell == nullptr || cell->owner != e.actor) return false;
    // The maxima must already point at the actor's CURRENT interval: the
    // owner fast path would otherwise fold them to it — a state change.
    const OmInterval* v = cur_[e.actor];
    if (e.op == TraceOp::kRead) {
      if (cell->read_emax != v || cell->read_hmax != v) return false;
    } else {
      if (cell->write_emax != v || cell->write_hmax != v) return false;
    }
  }
  access_count_ += static_cast<std::size_t>(len) *
                   static_cast<std::size_t>(extra_reps);
  return true;
}

void DePaDetector::on_retire(TaskId t, Loc loc) {
  R2D_REQUIRE(t < cur_.size(), "unknown task in retire");
  DepaShadowCell* cell = cells_.find(loc);
  if (cell == nullptr) return;  // never accessed: not an access, no ordinal
  ++access_count_;
  detail::depa_retire_check(*cell, cur_[t], t, loc, access_count_, reporter_);
  cells_.erase(loc);
}

DePaDetector::State DePaDetector::export_state() const {
  State s;
  s.clock = clock_.export_state();
  std::unordered_map<const OmInterval*, std::uint64_t> index;
  index.reserve(s.clock.intervals.size());
  clock_.for_each_interval([&index](std::size_t i, const OmInterval* iv) {
    index.emplace(iv, static_cast<std::uint64_t>(i));
  });
  const auto to_index = [&index](const OmInterval* p) {
    if (p == nullptr) return kNullInterval;
    const auto it = index.find(p);
    R2D_ASSERT(it != index.end());
    return it->second;
  };
  s.cur.reserve(cur_.size());
  for (const OmInterval* p : cur_) s.cur.push_back(to_index(p));
  s.cells.reserve(cells_.size());
  cells_.for_each([&s, &to_index](Loc loc, const DepaShadowCell& cell) {
    s.cells.push_back({loc, to_index(cell.read_emax), to_index(cell.read_hmax),
                       to_index(cell.write_emax), to_index(cell.write_hmax),
                       cell.owner});
  });
  s.undrained = reporter_.all();
  if (reporter_.any()) s.first = reporter_.first();
  s.reports_total = reporter_.count();
  s.access_count = access_count_;
  return s;
}

bool DePaDetector::import_state(const State& s) {
  R2D_REQUIRE(cur_.empty(), "import_state needs a fresh detector");
  if (!clock_.import_state(s.clock)) return false;
  const std::uint64_t n = s.clock.intervals.size();
  const auto to_ptr = [this, n](std::uint64_t i) -> OmInterval* {
    if (i == kNullInterval) return nullptr;
    R2D_REQUIRE(i < n, "snapshot interval index out of range");
    return clock_.interval_at(static_cast<std::size_t>(i));
  };
  cur_.reserve(s.cur.size());
  for (const std::uint64_t i : s.cur) {
    R2D_REQUIRE(i != kNullInterval, "task without a current interval");
    cur_.push_back(to_ptr(i));
  }
  cells_.reserve(s.cells.size());
  for (const CellState& c : s.cells) {
    DepaShadowCell& cell = cells_[c.loc];
    cell.read_emax = to_ptr(c.read_emax);
    cell.read_hmax = to_ptr(c.read_hmax);
    cell.write_emax = to_ptr(c.write_emax);
    cell.write_hmax = to_ptr(c.write_hmax);
    cell.owner = c.owner;
  }
  reporter_.import_state(std::vector<RaceReport>(s.undrained), s.first,
                         static_cast<std::size_t>(s.reports_total));
  access_count_ = static_cast<std::size_t>(s.access_count);
  return true;
}

MemoryFootprint DePaDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = cells_.heap_bytes();
  f.per_task_bytes =
      clock_.heap_bytes() + cur_.capacity() * sizeof(OmInterval*);
  return f;
}

std::vector<RaceReport> detect_races_trace_depa(const Trace& trace,
                                                ReportPolicy policy,
                                                LintGate gate) {
  if (gate == LintGate::kEnforce) require_lint_clean(trace);
  DePaDetector detector(policy);
  detector.on_root();
  for (const TraceEvent& e : trace) {
    switch (e.op) {
      case TraceOp::kFork: {
        const TaskId assigned = detector.on_fork(e.actor);
        R2D_REQUIRE(assigned == e.other,
                    "trace task ids must be dense in fork order");
        break;
      }
      case TraceOp::kJoin:
        detector.on_join(e.actor, e.other);
        break;
      case TraceOp::kHalt:
        detector.on_halt(e.actor);
        break;
      case TraceOp::kRead:
        detector.on_read(e.actor, e.loc);
        break;
      case TraceOp::kWrite:
        detector.on_write(e.actor, e.loc);
        break;
      case TraceOp::kRetire:
        detector.on_retire(e.actor, e.loc);
        break;
      case TraceOp::kSync:
      case TraceOp::kFinishBegin:
      case TraceOp::kFinishEnd:
      case TraceOp::kAcquire:
      case TraceOp::kRelease:
        break;
    }
  }
  return detector.reporter().all();
}

}  // namespace race2d
