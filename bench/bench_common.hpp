// Shared helpers for the benchmark suite: canned traces and detector
// drivers, so every detector is measured on byte-identical event streams.
#pragma once

#include <cstdint>
#include <utility>

#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"

namespace race2d::benchutil {

/// Runs `program` once under the serial executor and returns its trace.
inline Trace record(TaskBody program) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(program));
  return rec.take();
}

/// Replays a trace into any detector exposing the thread-level event API
/// (OnlineRaceDetector, VectorClockDetector, FastTrackDetector,
/// SPBagsDetector). Returns the number of memory accesses replayed.
template <typename Detector>
std::size_t drive(Detector& det, const Trace& trace) {
  det.on_root();
  std::size_t accesses = 0;
  for (const TraceEvent& e : trace) {
    apply_event(det, e);
    accesses += e.op == TraceOp::kRead || e.op == TraceOp::kWrite;
  }
  return accesses;
}

}  // namespace race2d::benchutil
