#include "core/detector.hpp"

#include <sstream>
#include <unordered_set>

#include "core/delayed_walk.hpp"
#include "core/shadow_ops.hpp"
#include "core/streaming_detector.hpp"
#include "lattice/delayed.hpp"
#include "support/assert.hpp"
#include "verify/graph_lint.hpp"

namespace race2d {

void OnlineRaceDetector::reset(ReportPolicy policy) {
  tasks_.reset();
  engine_.clear();
  history_.clear();
  reporter_ = RaceReporter(policy);
  access_count_ = 0;
  joined_since_pass_ = 0;
  compactions_ = 0;
}

TaskId OnlineRaceDetector::on_root() {
  const TaskId root = tasks_.add();
  engine_.on_loop(engine_.add_vertex());
  return root;
}

TaskId OnlineRaceDetector::on_fork(TaskId parent) {
  R2D_REQUIRE(tasks_.row(parent) != LiveTaskIndex::kNoRow,
              "unknown parent task");
  const TaskId child = tasks_.add();
  // The fork arc (parent, child) is never a last-arc (the child is drawn to
  // the parent's left; the parent's continuation is the rightmost arc), so
  // Walk takes no action on it. The child's first loop follows immediately
  // in fork-first order.
  engine_.on_loop(engine_.add_vertex());
  return child;
}

void OnlineRaceDetector::on_join(TaskId joiner, TaskId joined) {
  const VertexId keep = slot(joiner);
  // Delayed last-arc (joined, joiner): Union(joiner, joined), i.e. the
  // joined task's last-arc tree hangs below the joiner, which keeps the label.
  engine_.on_last_arc(slot(joined), keep);
  engine_.on_loop(keep);  // the join operation itself is a step of joiner
  ++joined_since_pass_;
  const std::size_t slots = engine_.vertex_count();
  if (slots >= LiveTaskIndex::kCompactionFloor &&
      joined_since_pass_ >
          history_.location_count() + (slots - joined_since_pass_))
    compact();
}

void OnlineRaceDetector::compact() {
  const std::size_t slots = engine_.vertex_count();
  std::vector<VertexId> label(slots);
  for (std::size_t s = 0; s < slots; ++s)
    label[s] = engine_.label(static_cast<VertexId>(s));
  const std::vector<std::uint32_t> remap = tasks_.compact(
      [&label](std::uint32_t s) { return label[s] == s; });
  const auto relabel = [&](VertexId x) {
    return x == kInvalidVertex ? x : remap[label[x]];
  };
  history_.for_each([&](Loc, ShadowCell& cell) {
    cell.read_sup = relabel(cell.read_sup);
    cell.write_sup = relabel(cell.write_sup);
    if (cell.epoch_task != kInvalidVertex)
      cell.epoch_task = remap[cell.epoch_task];  // kNoRow == kInvalidVertex
  });
  engine_.retain(remap, tasks_.rows());
  joined_since_pass_ = 0;
  ++compactions_;
}

void OnlineRaceDetector::on_halt(TaskId t) { engine_.on_stop_arc(slot(t)); }

void OnlineRaceDetector::on_read(TaskId t, Loc loc) {
  const VertexId s = slot(t);
  engine_.on_loop(s);
  ++access_count_;
  detail::shadow_read(engine_, history_.cell(loc), s, t, loc, access_count_,
                      reporter_);
}

void OnlineRaceDetector::on_write(TaskId t, Loc loc) {
  const VertexId s = slot(t);
  engine_.on_loop(s);
  ++access_count_;
  detail::shadow_write(engine_, history_.cell(loc), s, t, loc, access_count_,
                       reporter_);
}

void OnlineRaceDetector::on_retire(TaskId t, Loc loc) {
  const VertexId s = slot(t);
  engine_.on_loop(s);
  if (detail::shadow_retire(engine_, history_, s, t, loc, access_count_ + 1,
                            reporter_)) {
    ++access_count_;
  }
}

MemoryFootprint OnlineRaceDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = history_.heap_bytes();
  f.per_task_bytes = engine_.heap_bytes() + tasks_.heap_bytes();
  return f;
}

OnlineRaceDetector::State OnlineRaceDetector::export_state() const {
  State s;
  s.tasks = tasks_.export_state();
  s.engine = engine_.export_state();
  s.cells.reserve(history_.location_count());
  history_.for_each([&s](Loc loc, const ShadowCell& cell) {
    s.cells.emplace_back(loc, cell);
  });
  s.undrained = reporter_.all();
  if (reporter_.any()) s.first = reporter_.first();
  s.reports_total = reporter_.count();
  s.access_count = access_count_;
  return s;
}

void OnlineRaceDetector::import_state(State&& s) {
  const std::size_t slots = s.engine.parent.size();
  tasks_.import_state(std::move(s.tasks));
  R2D_REQUIRE(tasks_.rows() == slots, "task index and DSU disagree on slots");
  engine_.import_state(std::move(s.engine));
  history_.clear();
  history_.reserve(s.cells.size());
  const auto in_range = [slots](VertexId v) {
    return v == kInvalidVertex || v < slots;
  };
  for (const auto& [loc, cell] : s.cells) {
    R2D_REQUIRE(in_range(cell.read_sup) && in_range(cell.write_sup) &&
                    in_range(cell.epoch_task),
                "shadow cell names a missing slot");
    history_.cell(loc) = cell;
  }
  reporter_.import_state(std::move(s.undrained), s.first,
                         static_cast<std::size_t>(s.reports_total));
  access_count_ = static_cast<std::size_t>(s.access_count);
  // Every slot that no longer labels its own set was joined since the last
  // pass, so the restored detector compacts exactly when the original would.
  joined_since_pass_ = 0;
  for (std::size_t x = 0; x < slots; ++x)
    if (engine_.label(static_cast<VertexId>(x)) != x) ++joined_since_pass_;
}

std::vector<RaceReport> detect_races_offline(
    const Diagram& d, const std::vector<std::vector<VertexAccess>>& ops,
    WalkMode mode, ReportPolicy policy) {
  // Structured rejection of malformed inputs: a garbage diagram would
  // otherwise surface as a ContractViolation (or an infinite walk) from
  // deep inside the traversal construction.
  require_diagram_clean(d);
  if (ops.size() != d.vertex_count()) {
    LintResult shape;
    std::ostringstream os;
    os << "ops has " << ops.size() << " access list(s) for "
       << d.vertex_count() << " vertices";
    shape.diagnostics.push_back({LintCode::kOpsShapeMismatch,
                                 LintSeverity::kError, ops.size(), os.str(),
                                 "supply exactly one access list per vertex"});
    throw DiagramLintError(std::move(shape));
  }

  Traversal traversal;
  switch (mode) {
    case WalkMode::kNonSeparating:
      traversal = non_separating_traversal(d);
      break;
    case WalkMode::kDelayed:
      traversal = delayed_traversal(d);
      break;
    case WalkMode::kRuntimeDelayed:
      traversal = runtime_delayed_traversal(d);
      break;
  }

  StreamingLatticeDetector detector(policy);
  detector.grow_to(d.vertex_count());
  // Pre-size the shadow map for the distinct locations this workload
  // touches, so the replay loop never pays an incremental rehash. (Exact
  // count, not access count: over-reserving would distort E2's
  // bytes-per-location accounting.)
  {
    std::unordered_set<Loc> locs;
    for (const auto& vertex_ops : ops)
      for (const VertexAccess& a : vertex_ops) locs.insert(a.loc);
    detector.reserve_locations(locs.size());
  }
  for (const TraversalEvent& e : traversal) {
    detector.on_event(e);
    if (e.kind != EventKind::kLoop) continue;
    for (const VertexAccess& a : ops[e.src]) {
      switch (a.kind) {
        case AccessKind::kRead:
          detector.on_read(e.src, a.loc);
          break;
        case AccessKind::kWrite:
          detector.on_write(e.src, a.loc);
          break;
        case AccessKind::kRetire:
          detector.on_retire(e.src, a.loc);
          break;
      }
    }
  }
  return detector.reporter().all();
}

}  // namespace race2d
