#include "core/detector.hpp"

#include <sstream>
#include <unordered_set>

#include "core/delayed_walk.hpp"
#include "core/shadow_ops.hpp"
#include "core/streaming_detector.hpp"
#include "lattice/delayed.hpp"
#include "runtime/trace.hpp"
#include "support/assert.hpp"
#include "verify/graph_lint.hpp"

namespace race2d {

TaskId OnlineRaceDetector::on_root() {
  const TaskId root = engine_.add_vertex();
  engine_.on_loop(root);
  return root;
}

TaskId OnlineRaceDetector::on_fork(TaskId parent) {
  R2D_REQUIRE(parent < engine_.vertex_count(), "unknown parent task");
  const TaskId child = engine_.add_vertex();
  // The fork arc (parent, child) is never a last-arc (the child is drawn to
  // the parent's left; the parent's continuation is the rightmost arc), so
  // Walk takes no action on it. The child's first loop follows immediately
  // in fork-first order.
  engine_.on_loop(child);
  return child;
}

void OnlineRaceDetector::on_join(TaskId joiner, TaskId joined) {
  R2D_REQUIRE(joiner < engine_.vertex_count() && joined < engine_.vertex_count(),
              "unknown task in join");
  // Delayed last-arc (joined, joiner): Union(joiner, joined), i.e. the
  // joined task's last-arc tree hangs below the joiner, which keeps the label.
  engine_.on_last_arc(joined, joiner);
  engine_.on_loop(joiner);  // the join operation itself is a step of joiner
}

void OnlineRaceDetector::on_halt(TaskId t) {
  R2D_REQUIRE(t < engine_.vertex_count(), "unknown task in halt");
  engine_.on_stop_arc(t);
}

void OnlineRaceDetector::on_read(TaskId t, Loc loc) {
  R2D_REQUIRE(t < engine_.vertex_count(), "unknown task in read");
  engine_.on_loop(t);
  ++access_count_;
  detail::shadow_read(engine_, history_.cell(loc), t, loc, access_count_,
                      reporter_);
}

void OnlineRaceDetector::on_write(TaskId t, Loc loc) {
  R2D_REQUIRE(t < engine_.vertex_count(), "unknown task in write");
  engine_.on_loop(t);
  ++access_count_;
  detail::shadow_write(engine_, history_.cell(loc), t, loc, access_count_,
                       reporter_);
}

void OnlineRaceDetector::on_retire(TaskId t, Loc loc) {
  R2D_REQUIRE(t < engine_.vertex_count(), "unknown task in retire");
  engine_.on_loop(t);
  if (detail::shadow_retire(engine_, history_, t, loc, access_count_ + 1,
                            reporter_)) {
    ++access_count_;
  }
}

bool OnlineRaceDetector::try_apply_clean_run(const TraceEvent* events,
                                             std::size_t len,
                                             std::uint64_t extra_reps) {
  for (std::size_t i = 0; i < len; ++i) {
    const TraceEvent& e = events[i];
    if (e.op != TraceOp::kRead && e.op != TraceOp::kWrite) return false;
    const ShadowCell* cell = history_.find(e.loc);
    if (cell == nullptr) return false;
    // epoch_hit alone is not enough: a write-cached epoch can coexist with a
    // read_sup still naming an OLDER task, which a slow-replay read would
    // fold to e.actor — a state change. Requiring the relevant supremum to
    // have folded already makes every repetition a provable no-op.
    if (!detail::epoch_hit(*cell, e.actor)) return false;
    if (e.op == TraceOp::kRead) {
      if (cell->read_sup != e.actor) return false;
    } else {
      if (cell->write_sup != e.actor) return false;
    }
    // engine_.on_loop(e.actor) is a no-op too: the actor is visited (it just
    // performed this access in the materialized first repetition).
  }
  access_count_ += static_cast<std::size_t>(len) *
                   static_cast<std::size_t>(extra_reps);
  return true;
}

MemoryFootprint OnlineRaceDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = history_.heap_bytes();
  f.per_task_bytes = engine_.heap_bytes();
  return f;
}

OnlineRaceDetector::State OnlineRaceDetector::export_state() const {
  State s;
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
  const std::size_t vertices = s.engine.parent.size();
  engine_.import_state(std::move(s.engine));
  history_.clear();
  history_.reserve(s.cells.size());
  for (const auto& [loc, cell] : s.cells) {
    R2D_REQUIRE((cell.read_sup == kInvalidVertex || cell.read_sup < vertices) &&
                    (cell.write_sup == kInvalidVertex ||
                     cell.write_sup < vertices),
                "shadow cell supremum out of range");
    history_.cell(loc) = cell;
  }
  reporter_.import_state(std::move(s.undrained), s.first,
                         static_cast<std::size_t>(s.reports_total));
  access_count_ = static_cast<std::size_t>(s.access_count);
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
