#include "core/replay.hpp"

#include "core/depa_detector.hpp"
#include "core/detector.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

template <typename Engine>
std::vector<RaceReport> replay_gated(const Trace& trace, ReportPolicy policy,
                                     LintGate gate) {
  if (gate == LintGate::kEnforce) require_lint_clean(trace);
  Engine engine(policy);
  engine.on_root();
  for (const TraceEvent& e : trace) {
    const bool dense = apply_event(engine, e);
    R2D_REQUIRE(dense, "trace task ids must be dense in fork order");
  }
  return engine.reporter().all();
}

}  // namespace

std::vector<RaceReport> detect_races_trace(const Trace& trace,
                                           ReportPolicy policy,
                                           LintGate gate) {
  return replay_gated<OnlineRaceDetector>(trace, policy, gate);
}

std::vector<RaceReport> detect_races_trace_depa(const Trace& trace,
                                                ReportPolicy policy,
                                                LintGate gate) {
  return replay_gated<DePaDetector>(trace, policy, gate);
}

}  // namespace race2d
