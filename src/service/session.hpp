// One detection session: the ingest pipeline behind a service session id.
//
//   FEED bytes ──▶ BinaryTraceDecoder ──▶ TraceLintStream ──▶ detector
//                  (O(chunk) resident)    (gate: an event      (labeled DSU,
//                                          failing lint never   Figure 6;
//                                          reaches the          reports drained
//                                          detector)            incrementally)
//
// The session is the decoder's EventSink: each event goes from wire bytes
// through the lint gate into the detector as soon as it is decoded, with no
// per-frame event buffer. The decoder expands 'Z' runs itself, so a
// version-2 stream reaches the session event by event, exactly as its
// version-1 twin does.
//
// The pipeline is fail-fast and sticky: the first decode or lint error in
// stream order poisons the session (status + message are retained and every
// later operation answers with them), because events past a malformed point
// would produce garbage verdicts — the same contract require_lint_clean()
// gives batch callers, enforced event-at-a-time so it holds mid-stream.
// Since every event is checked where it lies in the stream, the verdict,
// the totals and the reports do not depend on how the client splits its
// bytes into FEEDs.
//
// All state is byte-accounted (memory_bytes) so the service can enforce
// per-session quotas and evict gracefully instead of growing without bound.
//
// Lifecycle. OPEN builds a session and RESTORE builds one from a snapshot;
// FEEDs, DRAINs and SNAPSHOTs follow; CLOSE, an eviction or a spill ends
// it. reset() makes a session what the constructor would make, under a new
// policy and pending cap, keeping every layer's buffers; the constructor
// runs it too, so it is the one definition of a fresh session. Hash tables
// go back to their first slot count, which decides the order a snapshot
// serializes their entries in, so a reset session answers and snapshots
// byte for byte as a new one. memory_bytes() counts the buffers a reset
// keeps. A shard reuses its closed sessions this way (service.hpp,
// "Recycling").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "io/binary_reader.hpp"
#include "service/protocol.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

class DetectionSession final : private EventSink {
 public:
  /// Every session runs the labeled-DSU detector. The third parameter is
  /// the engine an OPEN named; it is ignored, because DePa's report stream
  /// is bit-identical to the DSU's (the differential panel enforces this)
  /// and the DSU is the faster and smaller of the two.
  DetectionSession(ReportPolicy policy, std::size_t max_pending_reports,
                   DetectorEngine = DetectorEngine::kDsu);

  /// Makes this a session that has seen nothing, exactly as the
  /// constructor would with these arguments, poison included, keeping the
  /// buffers of the decoder, the lint gate, the detector and the report
  /// queue.
  void reset(ReportPolicy policy, std::size_t max_pending_reports);

  struct FeedOutcome {
    ServiceStatus status = ServiceStatus::kOk;
    std::uint64_t events = 0;  ///< events this feed accepted (even if it fails)
    std::uint32_t pending_reports = 0;
    bool backpressure = false;  ///< pending reports at/over half the cap
    std::string message;        ///< non-kOk: leads with the stable code
  };
  /// Ingests one FEED frame's bytes. Refuses (kBackpressure, nothing
  /// consumed) when pending reports are at the cap; otherwise decodes, lints
  /// and detects, event by event. A decode/lint failure consumes the frame
  /// and poisons the session; the events before it stay detected, and their
  /// reports join the drain queue.
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
  /// end-of-trace conditions (truncation, unjoined tasks). Whatever the
  /// outcome, the session takes no further request: the caller frees it,
  /// or keeps it to reset() for a later OPEN.
  CloseOutcome close();

  /// Resident bytes: decoder buffers (partial frame + run template) + lint
  /// state + detector (DSU + shadow) + undrained reports. The service's
  /// quota checks read this after every feed.
  std::size_t memory_bytes() const;

  std::uint64_t events_total() const { return events_total_; }
  std::uint64_t reports_total() const { return detector_.reporter().count(); }
  std::size_t pending_reports() const { return pending_.size() - drained_; }
  bool poisoned() const { return poison_status_ != ServiceStatus::kOk; }

  ReportPolicy policy() const { return detector_.reporter().policy(); }
  /// Wire bytes fed so far: those decoded plus the partial frame the
  /// decoder holds (what a snapshot covers — the restoring client resumes
  /// its stream at this offset).
  std::uint64_t fed_bytes() const { return decoder_.bytes_fed(); }

  /// Plain-data image of the whole session pipeline. Only live, unpoisoned
  /// sessions are snapshotable — export_state on a poisoned session is a
  /// contract violation (the service refuses with K008 first).
  struct State {
    ReportPolicy policy = ReportPolicy::kAll;
    std::uint64_t max_pending_reports = 0;
    std::uint64_t events_total = 0;
    BinaryTraceDecoder::Snapshot decoder;
    TraceLintStream::Snapshot lint;
    OnlineRaceDetector::State detector;
    std::vector<RaceReport> pending;
  };
  State export_state() const;
  /// Builds a session that continues exactly where `s` left off. `s` must
  /// be validated first: the snapshot codec bound-checks every index and
  /// checks that every task on the lint line has a live detector slot.
  static std::unique_ptr<DetectionSession> restore(State&& s);

 private:
  /// EventSink: lint gate, then the detector. False once lint rejects.
  bool accept(const TraceEvent& e) override;

  /// Moves the detector's fresh reports into the drain queue.
  void queue_reports();
  [[nodiscard]] FeedOutcome poison(ServiceStatus status, std::string message);

  // Every member starts as reset() sets it.
  std::size_t max_pending_reports_;
  BinaryTraceDecoder decoder_;
  TraceLintStream lint_;
  OnlineRaceDetector detector_;
  /// Detected reports; the first drained_ of them were handed over already.
  /// A partial drain advances drained_ and erases the prefix only once it
  /// passes half the vector, so draining a backlog in steps costs O(backlog).
  std::vector<RaceReport> pending_;
  std::size_t drained_;
  std::uint64_t events_total_;
  ServiceStatus poison_status_;
  std::string poison_message_;
};

}  // namespace race2d
