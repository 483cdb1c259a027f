// Glue between the serial executor and the online race detector: the
// "instrumentation pass" of a real deployment, here a listener that feeds
// the executor's event stream straight into OnlineRaceDetector (Figure 6
// over the collapsed delayed traversal, eq. 8).
#pragma once

#include <cstddef>

#include "core/detector.hpp"
#include "runtime/listener.hpp"
#include "runtime/program.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"

namespace race2d {

/// Forwards execution events to an OnlineRaceDetector through apply_event.
/// Task ids are assigned densely by both the executor and the detector in
/// fork order, so they coincide; this is asserted.
class DetectorListener : public ExecutionListener {
 public:
  explicit DetectorListener(ReportPolicy policy = ReportPolicy::kAll)
      : detector_(policy) {
    const TaskId root = detector_.on_root();
    R2D_ASSERT(root == 0);
    (void)root;
  }

  void on_event(const TraceEvent& e) override {
    const bool dense = apply_event(detector_, e);
    R2D_ASSERT(dense);
    (void)dense;
  }

  OnlineRaceDetector& detector() { return detector_; }
  const OnlineRaceDetector& detector() const { return detector_; }

 private:
  OnlineRaceDetector detector_;
};

struct DetectionResult {
  std::vector<RaceReport> races;
  std::size_t task_count = 0;
  std::size_t access_count = 0;
  std::size_t tracked_locations = 0;
  MemoryFootprint footprint;

  bool race_free() const { return races.empty(); }
};

/// One-call convenience: run `program` under the serial executor with the
/// suprema-based detector attached and return everything it found.
DetectionResult run_with_detection(TaskBody program,
                                   ReportPolicy policy = ReportPolicy::kAll,
                                   SerialExecutorOptions options = {});

}  // namespace race2d
