// The traced run: the workload's frames replayed in-process through each
// layer's public entry points, with the time attributed to the layers.
//
// Spans are taken in the benchmark's own code around calls into the
// library; nothing inside src/ is instrumented. Per FEED frame the stage
// replay records one span per layer boundary:
//
//   service.codec   encode/decode of the FEED request and its response
//   io.decode       BinaryTraceDecoder::feed (with the DecodedRun sink)
//   core.engine     on_* / try_apply_clean_run over the frame's events
//   verify.lint     TraceLintStream::feed over the same events
//   service.drain   RaceReporter::take, and handing reports to a DRAIN
//   service.session engine/decoder/linter set-up and the end-of-stream checks
//
// The spans are flat (no span contains another), so each one is its own
// self time. trace.coverage is their sum over the wall time of the same
// frames through the real DetectionSession::feed/drain/close, untraced; the
// stage replay without spans gives trace.overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.hpp"
#include "workload.hpp"

namespace perfbench {

/// Runs every in-process pass and returns the per-layer metrics by name;
/// supporting figures (the Theorem-5 curve points, sample counts) go to
/// `details`. `socket_feed_us` holds the FEED round trips of the daemon
/// loop, `scratch_dir` receives the spill cycle's files and `spans_path`
/// the per-frame span records.
std::map<std::string, double> run_traced(
    const Workload& w, const std::vector<double>& socket_feed_us,
    double pass_seconds,
    const std::string& scratch_dir, const std::string& spans_path,
    std::map<std::string, double>& details);

}  // namespace perfbench
