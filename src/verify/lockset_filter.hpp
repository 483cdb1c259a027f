// Eraser-style lockset filtering of dynamic race reports.
//
// The online detector (and its DePa / panel siblings) is lock-
// agnostic by design: acquire/release events are vertex-less annotations,
// so lock-free traces stay bit-identical across every backend. Lock
// semantics enter DOWNSTREAM, as pure SUPPRESSION over the detector's
// reports: a reported pair whose two sides held a common mutex cannot
// actually overlap in any schedule (mutual exclusion), so the report is
// guarded, not a race. Semaphores never suppress — a counting semaphore
// orders, but does not exclude.
//
// The filter is pairwise-exact, not Eraser's C(l) intersection heuristic: a
// report at counted access k survives iff SOME conflicting prior access in
// the same storage lifetime is concurrent with k (task-graph oracle) AND
// holds no mutex in common with it. That is precisely the condition the
// static lockset refinement uses per region pair, which is what keeps the
// static/dynamic agreement sweep exact on lock-bearing families.
#pragma once

#include <cstddef>
#include <vector>

#include "baselines/oracle.hpp"
#include "core/report.hpp"
#include "runtime/trace.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

/// The lockset of every COUNTED access of `trace`, in detector ordinal
/// order (out[i] is the lockset of access ordinal i + 1): the sorted mutex
/// ids the actor held at that event. Counting mirrors the online detector:
/// reads and writes always count, a retire only when the location has live
/// prior accesses.
std::vector<std::vector<Loc>> access_locksets(const Trace& trace);

struct GuardedFilterResult {
  std::vector<RaceReport> reports;  ///< surviving reports, original order
  std::size_t suppressed = 0;       ///< guarded pairs filtered out
};

/// Filters `raw` (reports from any detector sharing the counted-access
/// ordinal convention) against `trace`'s locksets, judging concurrency with
/// `oracle` — pass the oracle of the trace's own task graph, or of the
/// futures-augmented graph when relaxed arcs apply. Suppression only: the
/// result is always a subsequence of `raw`.
GuardedFilterResult filter_guarded_races(const Trace& trace,
                                         const std::vector<RaceReport>& raw,
                                         const HappensBeforeOracle& oracle);

/// Convenience driver: online detection + task-graph oracle + filter.
/// The lockset-aware twin of detect_races_trace (which it calls).
GuardedFilterResult detect_races_trace_guarded(
    const Trace& trace, ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

}  // namespace race2d
