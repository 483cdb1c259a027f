#include "verify/lockset_filter.hpp"

#include <algorithm>

#include "core/replay.hpp"
#include "support/assert.hpp"
#include "support/flat_hash_map.hpp"

namespace race2d {

namespace {

/// One counted access with everything the filter needs to judge a report.
struct CountedAccess {
  std::size_t event = 0;  ///< trace index; TaskGraph::vertex_of_event keys it
  Loc loc = 0;
  AccessKind kind = AccessKind::kRead;
  std::uint32_t lifetime = 0;  ///< per-loc storage lifetime ordinal
  std::vector<Loc> lockset;    ///< sorted mutex ids held by the actor
};

struct LocState {
  std::uint32_t lifetime = 0;
  bool live = false;  ///< a counted read/write since the last counted retire
};

bool conflicting(AccessKind a, AccessKind b) {
  return !(a == AccessKind::kRead && b == AccessKind::kRead);
}

bool disjoint(const std::vector<Loc>& a, const std::vector<Loc>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) ++i;
    else ++j;
  }
  return true;
}

/// Replays `trace` once: per-task held-mutex sets, per-loc lifetimes, and
/// the detector's counted-access rule (dead retires are skipped).
std::vector<CountedAccess> collect_accesses(const Trace& trace) {
  std::vector<CountedAccess> out;
  std::vector<std::vector<Loc>> held(1);
  FlatHashMap<Loc, LocState> locs;
  const auto held_of = [&held](TaskId t) -> std::vector<Loc>& {
    if (t >= held.size()) held.resize(static_cast<std::size_t>(t) + 1);
    return held[t];
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    switch (e.op) {
      case TraceOp::kRead:
      case TraceOp::kWrite: {
        LocState& ls = locs[e.loc];
        ls.live = true;
        std::vector<Loc> lockset = held_of(e.actor);
        std::sort(lockset.begin(), lockset.end());
        out.push_back({i, e.loc,
                       e.op == TraceOp::kRead ? AccessKind::kRead
                                              : AccessKind::kWrite,
                       ls.lifetime, std::move(lockset)});
        break;
      }
      case TraceOp::kRetire: {
        LocState& ls = locs[e.loc];
        if (ls.live) {
          // A counted retire races against the lifetime it closes.
          std::vector<Loc> lockset = held_of(e.actor);
          std::sort(lockset.begin(), lockset.end());
          out.push_back({i, e.loc, AccessKind::kRetire, ls.lifetime,
                         std::move(lockset)});
          ++ls.lifetime;
          ls.live = false;
        }
        break;
      }
      case TraceOp::kAcquire:
        if (!is_semaphore_id(e.loc)) held_of(e.actor).push_back(e.loc);
        break;
      case TraceOp::kRelease:
        if (!is_semaphore_id(e.loc)) {
          std::vector<Loc>& h = held_of(e.actor);
          const auto it = std::find(h.rbegin(), h.rend(), e.loc);
          if (it != h.rend()) h.erase(std::next(it).base());
        }
        break;
      case TraceOp::kFork:
      case TraceOp::kJoin:
      case TraceOp::kHalt:
      case TraceOp::kSync:
      case TraceOp::kFinishBegin:
      case TraceOp::kFinishEnd:
        break;
    }
  }
  return out;
}

}  // namespace

std::vector<std::vector<Loc>> access_locksets(const Trace& trace) {
  std::vector<CountedAccess> accesses = collect_accesses(trace);
  std::vector<std::vector<Loc>> out;
  out.reserve(accesses.size());
  for (CountedAccess& a : accesses) out.push_back(std::move(a.lockset));
  return out;
}

GuardedFilterResult filter_guarded_races(const Trace& trace,
                                         const std::vector<RaceReport>& raw,
                                         const HappensBeforeOracle& oracle) {
  GuardedFilterResult out;
  if (raw.empty()) return out;
  const std::vector<CountedAccess> accesses = collect_accesses(trace);
  const std::vector<VertexId>& vertex_of = oracle.graph().vertex_of_event;
  R2D_REQUIRE(vertex_of.size() == trace.size(),
              "oracle's task graph was not built from this trace");
  for (const RaceReport& r : raw) {
    // A report the trace cannot explain (foreign ordinal convention) is
    // never suppressed — the filter must not hide evidence it cannot judge.
    if (r.access_index == 0 || r.access_index > accesses.size() ||
        accesses[r.access_index - 1].loc != r.loc) {
      out.reports.push_back(r);
      continue;
    }
    const CountedAccess& racing = accesses[r.access_index - 1];
    bool real = false;
    for (std::size_t i = 0; i + 1 < r.access_index && !real; ++i) {
      const CountedAccess& prior = accesses[i];
      real = prior.loc == racing.loc && prior.lifetime == racing.lifetime &&
             conflicting(prior.kind, racing.kind) &&
             oracle.concurrent(vertex_of[prior.event],
                               vertex_of[racing.event]) &&
             disjoint(prior.lockset, racing.lockset);
    }
    if (real) out.reports.push_back(r);
    else ++out.suppressed;
  }
  return out;
}

GuardedFilterResult detect_races_trace_guarded(const Trace& trace,
                                               ReportPolicy policy,
                                               LintGate gate) {
  if (gate == LintGate::kEnforce) require_lint_clean(trace);
  GuardedFilterResult out;
  std::vector<RaceReport> raw =
      detect_races_trace(trace, policy, LintGate::kSkip);
  const bool has_locks =
      std::any_of(trace.begin(), trace.end(), [](const TraceEvent& e) {
        return e.op == TraceOp::kAcquire || e.op == TraceOp::kRelease;
      });
  if (!has_locks || raw.empty()) {
    // Lock-free fast path: nothing can be guarded, skip the graph build.
    out.reports = std::move(raw);
    return out;
  }
  const TaskGraph graph = build_task_graph(trace);
  const HappensBeforeOracle oracle(graph);
  return filter_guarded_races(trace, raw, oracle);
}

}  // namespace race2d
