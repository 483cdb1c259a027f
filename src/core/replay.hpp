// Offline replay of a recorded trace: one lint-gated loop feeds the trace,
// event by event through apply_event, into a fresh engine and returns the
// engine's reports. The paper's detector is one serial procedure — Figure 6
// along the fork-first traversal (Theorem 5) — so this loop is the whole
// offline driver for both engines.
#pragma once

#include <vector>

#include "core/report.hpp"
#include "runtime/trace.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

/// Replays `trace` through one OnlineRaceDetector (the DSU suprema engine).
/// Lint-failing traces raise TraceLintError unless the gate is kSkip; a
/// trace whose task ids are not dense in fork order raises
/// ContractViolation either way.
std::vector<RaceReport> detect_races_trace(
    const Trace& trace, ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

/// Replays `trace` through one DePaDetector — the panel's tag-backend
/// reference, bit-identical to detect_races_trace on lint-clean traces.
/// Same gate and errors as detect_races_trace.
std::vector<RaceReport> detect_races_trace_depa(
    const Trace& trace, ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

}  // namespace race2d
