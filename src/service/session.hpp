// One detection session: the ingest pipeline behind a service session id.
//
//   FEED bytes ──▶ BinaryTraceDecoder ──▶ TraceLintStream ──▶ detector
//                  (O(chunk) resident)    (gate: an event      (DSU or DePa
//                                          failing lint never   engine; reports
//                                          reaches the          drained
//                                          detector)            incrementally)
//
// The pipeline is fail-fast and sticky: the first decode or lint error
// poisons the session (status + message are retained and every later
// operation answers with them), because events past a malformed point would
// produce garbage verdicts — the same contract require_lint_clean() gives
// batch callers, enforced event-at-a-time so it holds mid-stream.
//
// All state is byte-accounted (memory_bytes) so the service can enforce
// per-session quotas and evict gracefully instead of growing without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/depa_detector.hpp"
#include "core/detector.hpp"
#include "io/binary_reader.hpp"
#include "service/protocol.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

class DetectionSession {
 public:
  /// `engine` picks the precedence backend: the labeled DSU (default) or
  /// the DePa order-maintenance tags. Both consume the identical event
  /// stream and produce the identical report stream (the differential panel
  /// enforces this), so the choice is a pure performance/footprint knob.
  DetectionSession(ReportPolicy policy, std::size_t max_pending_reports,
                   DetectorEngine engine = DetectorEngine::kDsu);

  struct FeedOutcome {
    ServiceStatus status = ServiceStatus::kOk;
    std::uint64_t events = 0;  ///< events decoded and checked by this feed
    std::uint32_t pending_reports = 0;
    bool backpressure = false;  ///< pending reports at/over half the cap
    std::string message;        ///< non-kOk: leads with the stable code
  };
  /// Ingests one FEED frame's bytes. Refuses (kBackpressure, nothing
  /// consumed) when pending reports are at the cap; otherwise decodes, lints
  /// and detects. A decode/lint failure consumes the frame and poisons the
  /// session.
  FeedOutcome feed(const std::string& bytes);

  /// Hands over up to `max_reports` pending reports (0 = all); `more` tells
  /// the client to drain again. Report memory is freed here — the session's
  /// footprint shrinks at every drain.
  std::vector<RaceReport> drain(std::uint32_t max_reports, bool& more);

  struct CloseOutcome {
    ServiceStatus status = ServiceStatus::kOk;
    bool complete = false;  ///< trailer decoded and end-of-trace lint clean
    std::uint64_t events = 0;
    std::uint64_t reports = 0;
    std::string message;
  };
  /// Declares end-of-stream: checks the binary trailer and the linter's
  /// end-of-trace conditions (truncation, unjoined tasks). The caller frees
  /// the session afterwards regardless of the outcome.
  CloseOutcome close();

  /// Resident bytes: decoder buffer + lint state + detector (DSU + shadow)
  /// + undrained reports. The service's quota checks read this after every
  /// feed.
  std::size_t memory_bytes() const;

  std::uint64_t events_total() const { return events_total_; }
  std::uint64_t reports_total() const {
    return std::visit([](const auto& d) { return d.reporter().count(); },
                      detector_);
  }
  std::size_t pending_reports() const { return pending_.size(); }
  bool poisoned() const { return poison_status_ != ServiceStatus::kOk; }

  DetectorEngine engine() const {
    return detector_.index() == 0 ? DetectorEngine::kDsu
                                  : DetectorEngine::kDepa;
  }
  ReportPolicy policy() const {
    return std::visit([](const auto& d) { return d.reporter().policy(); },
                      detector_);
  }
  /// Wire bytes successfully decoded so far (what a snapshot covers — the
  /// restoring client resumes its stream at this offset).
  std::uint64_t fed_bytes() const { return fed_bytes_; }

  /// Plain-data image of the whole session pipeline. Only live, unpoisoned
  /// sessions are snapshotable — export_state on a poisoned session is a
  /// contract violation (the service refuses with K008 first).
  struct State {
    ReportPolicy policy = ReportPolicy::kAll;
    DetectorEngine engine = DetectorEngine::kDsu;
    std::uint64_t max_pending_reports = 0;
    std::uint64_t events_total = 0;
    std::uint64_t fed_bytes = 0;
    BinaryTraceDecoder::Snapshot decoder;
    TraceLintStream::Snapshot lint;
    OnlineRaceDetector::State dsu;  ///< engine == kDsu
    DePaDetector::State depa;       ///< engine == kDepa
    std::vector<RaceReport> pending;
  };
  State export_state() const;
  /// Builds a session that continues exactly where `s` left off. `s` must
  /// be validated (the snapshot codec bound-checks every index first);
  /// returns nullptr when the DePa clock's tags leave the universe or
  /// repeat within a list, the one check made while rebuilding.
  static std::unique_ptr<DetectionSession> restore(State&& s);

 private:
  struct RestoreTag {};
  DetectionSession(RestoreTag, ReportPolicy policy,
                   std::size_t max_pending_reports, DetectorEngine engine);

  void drive(const TraceEvent& e);
  [[nodiscard]] FeedOutcome poison(ServiceStatus status, std::string message);

  std::size_t max_pending_reports_;
  BinaryTraceDecoder decoder_;
  TraceLintStream lint_;
  std::variant<OnlineRaceDetector, DePaDetector> detector_;
  std::vector<TraceEvent> scratch_;  ///< decoded events of the current feed
  std::vector<DecodedRun> runs_;     ///< stationary runs among them
  std::vector<RaceReport> pending_;  ///< detected, not yet drained
  std::uint64_t events_total_ = 0;
  std::uint64_t fed_bytes_ = 0;  ///< wire bytes successfully decoded
  ServiceStatus poison_status_ = ServiceStatus::kOk;
  std::string poison_message_;
};

}  // namespace race2d
