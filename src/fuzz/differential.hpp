// Differential execution of every detector and applicable baseline on one
// trace, with verdict cross-checking.
//
// Agreement contract (what "agree" means differs by pair — it mirrors the
// paper's guarantees, not wishful exactness):
//   * detect_races_trace_depa (the order-maintenance label backend) must be
//     BIT-IDENTICAL to serial replay: the maxima-pair shadow cells are
//     verdict-equivalent to the DSU suprema by construction, and the panel
//     holds the implementation to it report-for-report.
//   * detect_races_offline (all three walk modes), the naive gold reference,
//     vector-clock and FastTrack must agree on the VERDICT (some race vs
//     race-free) and on the FIRST report's access ordinal and location —
//     the paper only guarantees precision up to the first race.
//   * SP-bags / ESP-bags join the panel only when the trace honors their
//     discipline (TraceFeatures) and carries no retires.
//   * When the serial detector reports races, the first report must carry a
//     certificate the reachability oracle re-proves, and every certificate
//     the checker builds must pass its own re-check.
//   * The binary codec must round-trip every trace exactly: decode(encode(t))
//     == t event-for-event, and re-encoding the decoded trace reproduces the
//     IDENTICAL bytes (the wire format is canonical — PR 5's invariant).
// Any violated clause is a FAILURE ARTIFACT: the fuzzer's entire purpose.
#pragma once

#include <cstddef>
#include <string>

#include "fuzz/fuzz_plan.hpp"
#include "io/binary_format.hpp"
#include "runtime/trace.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

/// The stages a caller may skip or trust; every other stage always runs.
struct DifferentialConfig {
  /// Consult SP-bags / ESP-bags when the trace's features allow it. The
  /// shrinker turns this off: delta-debugging cuts do not preserve the
  /// sugar disciplines, only Figure-9 validity.
  bool bags_baselines = true;
  /// kEnforce lints once up front (the per-detector gates then skip);
  /// kSkip trusts the caller to have linted the identical trace.
  LintGate gate = LintGate::kEnforce;
  /// kRuns additionally encodes the trace as a version-2 run-compressed
  /// stream, requires it to expand to the identical event list, and feeds
  /// those bytes through one ingest session (decode → lint gate → DSU
  /// detector), requiring the bit-identical report stream — compression is
  /// a property of the codec, never an oracle change. kNone skips the
  /// compressed stages.
  CompressionMode codec_compression = CompressionMode::kRuns;
};

struct DifferentialResult {
  bool ok = true;
  /// Names the disagreeing pair and both sides' evidence; empty when ok.
  std::string failure;
  std::size_t serial_races = 0;
  std::size_t detectors_run = 0;

  explicit operator bool() const { return ok; }
};

/// Runs the full panel on `trace`. The trace must lint clean (throws
/// TraceLintError under kEnforce otherwise, like every gated detector).
DifferentialResult run_differential(const Trace& trace,
                                    const TraceFeatures& features,
                                    const DifferentialConfig& config = {});

}  // namespace race2d
