// A long, lint-clean program built from fuzz subprograms, shared by the
// tests that need one: the DePa relabel check, the snapshot restore loop,
// the shadow-bytes bounds, the compaction tests and the soak.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "runtime/trace.hpp"
#include "support/rng.hpp"

namespace race2d {

/// Appends subprogram `index` of a composition: a child of task 0 whose
/// task ids start at `next_task` (advanced past them) and whose locations
/// are shifted into window index % 16, joined by the root at its end.
inline void append_subprogram(Xoshiro256& rng, std::size_t index,
                              TaskId& next_task, Trace& out) {
  const Trace sub = generate_trace(FuzzPlan::from_seed(rng())).trace;
  const TaskId base = next_task;
  const Loc loc_base = static_cast<Loc>(index % 16) << 21;
  out.push_back({TraceOp::kFork, 0, base, 0});
  ++next_task;
  bool halted = false;
  for (TraceEvent e : sub) {
    if (e.op == TraceOp::kFork) ++next_task;
    if (e.op == TraceOp::kHalt && e.actor == 0) halted = true;
    e.actor += base;
    if (e.other != kInvalidTask) e.other += base;
    if (e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
        e.op == TraceOp::kRetire)
      e.loc += loc_base;
    out.push_back(e);
  }
  if (!halted) out.push_back({TraceOp::kHalt, base, kInvalidTask, 0});
  out.push_back({TraceOp::kJoin, 0, base, 0});
}

/// Fuzz subprograms run one after another under one root, the way the
/// end-to-end benchmark composes its long sessions: subprogram i is a child
/// of task 0 with its task ids shifted to stay dense in fork order and its
/// locations shifted into window i % 16, and the root joins it before
/// forking the next, so subprograms never race with each other and the
/// line stays as short as one subprogram's. Stops after `count`
/// subprograms or once the program holds `min_events` events, whichever
/// comes first (0 = no event bound).
inline Trace composed_program(std::uint64_t seed, std::size_t count,
                              std::size_t min_events = 0) {
  Xoshiro256 rng(seed);
  Trace out;
  TaskId next_task = 1;
  for (std::size_t i = 0; i < count; ++i) {
    if (min_events != 0 && out.size() >= min_events) break;
    append_subprogram(rng, i, next_task, out);
  }
  out.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return out;
}

}  // namespace race2d
