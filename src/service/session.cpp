#include "service/session.hpp"

#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace race2d {

DetectionSession::DetectionSession(ReportPolicy policy,
                                   std::size_t max_pending_reports,
                                   DetectorEngine)
    : DetectionSession(RestoreTag{}, policy, max_pending_reports) {
  detector_.on_root();  // the initial line {root | program}: task 0
}

DetectionSession::FeedOutcome DetectionSession::poison(ServiceStatus status,
                                                       std::string message) {
  poison_status_ = status;
  poison_message_ = std::move(message);
  FeedOutcome out;
  out.status = poison_status_;
  out.message = poison_message_;
  return out;
}

bool DetectionSession::accept(const TraceEvent& e) {
  // The offending event never reaches the detector; every event before it
  // was already checked and detected.
  if (!lint_.feed(e)) return false;
  // Lint enforced dense fork-order numbering, so the detector's fresh id
  // equals e.other by construction.
  apply_event(detector_, e);
  ++events_total_;
  return true;
}

void DetectionSession::queue_reports() {
  // The reporter's totals (any/count/first) keep describing the whole
  // session; only its undrained tail moves.
  std::vector<RaceReport> fresh = detector_.mutable_reporter().take();
  if (pending_.empty())
    pending_.swap(fresh);
  else
    pending_.insert(pending_.end(), fresh.begin(), fresh.end());
}

DetectionSession::FeedOutcome DetectionSession::feed(const std::string& bytes) {
  if (poisoned()) {
    FeedOutcome out;
    out.status = poison_status_;
    out.message = poison_message_;
    return out;
  }
  if (pending_reports() >= max_pending_reports_) {
    // Hard backpressure: consuming more input could only grow the report
    // backlog. The frame is NOT consumed — the client drains and resends.
    FeedOutcome out;
    out.status = ServiceStatus::kBackpressure;
    out.pending_reports = static_cast<std::uint32_t>(pending_reports());
    out.backpressure = true;
    std::ostringstream os;
    os << "pending reports at the cap (" << max_pending_reports_
       << "); drain before feeding more";
    out.message = os.str();
    return out;
  }

  const std::uint64_t events_before = events_total_;
  FeedOutcome out;
  try {
    if (!decoder_.feed(bytes.data(), bytes.size(), *this))
      out = poison(ServiceStatus::kLintReject,
                   to_string(lint_.result().first_error()));
  } catch (const TraceDecodeError& e) {
    out = poison(ServiceStatus::kDecodeReject, e.what());
  }
  // A rejecting feed still hands over the reports of the events it
  // accepted, so the drained stream is the same however the bytes split.
  queue_reports();
  out.events = events_total_ - events_before;
  out.pending_reports = static_cast<std::uint32_t>(pending_reports());
  out.backpressure = pending_reports() * 2 >= max_pending_reports_;
  return out;
}

std::vector<RaceReport> DetectionSession::drain(std::uint32_t max_reports,
                                                bool& more) {
  const std::size_t left = pending_reports();
  const std::size_t n =
      (max_reports == 0 || max_reports >= left) ? left : max_reports;
  std::vector<RaceReport> out;
  if (drained_ == 0 && n == pending_.size()) {
    // The whole backlog: hand its buffer over instead of copying it.
    out.swap(pending_);
    more = false;
    return out;
  }
  const auto first =
      pending_.begin() + static_cast<std::ptrdiff_t>(drained_);
  out.assign(first, first + static_cast<std::ptrdiff_t>(n));
  drained_ += n;
  if (drained_ == pending_.size()) {
    // Actually release the backlog's buffer: draining is how a session's
    // footprint shrinks back under its quota.
    pending_.clear();
    pending_.shrink_to_fit();
    drained_ = 0;
  } else if (drained_ * 2 > pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(drained_));
    drained_ = 0;
  }
  more = pending_reports() != 0;
  return out;
}

DetectionSession::CloseOutcome DetectionSession::close() {
  CloseOutcome out;
  out.events = events_total_;
  out.reports = reports_total();
  if (poisoned()) {
    out.status = poison_status_;
    out.message = poison_message_;
    return out;
  }
  try {
    decoder_.finish();
  } catch (const TraceDecodeError& e) {
    out.status = ServiceStatus::kDecodeReject;
    out.message = e.what();
    return out;
  }
  lint_.finish();
  if (!lint_.ok_so_far()) {
    out.status = ServiceStatus::kLintReject;
    out.message = to_string(lint_.result().first_error());
    return out;
  }
  out.complete = true;
  return out;
}

DetectionSession::DetectionSession(RestoreTag, ReportPolicy policy,
                                   std::size_t max_pending_reports)
    : max_pending_reports_(max_pending_reports),
      lint_(kGateLintOptions),
      detector_(policy) {
  // No on_root(): a restore imports the detector image (root included).
}

DetectionSession::State DetectionSession::export_state() const {
  R2D_REQUIRE(!poisoned(), "export_state: poisoned sessions do not snapshot");
  State s;
  s.policy = policy();
  s.max_pending_reports = max_pending_reports_;
  s.events_total = events_total_;
  s.decoder = decoder_.export_state();
  s.lint = lint_.export_state();
  s.detector = detector_.export_state();
  s.pending.assign(pending_.begin() + static_cast<std::ptrdiff_t>(drained_),
                   pending_.end());
  return s;
}

std::unique_ptr<DetectionSession> DetectionSession::restore(State&& s) {
  std::unique_ptr<DetectionSession> session(new DetectionSession(
      RestoreTag{}, s.policy, static_cast<std::size_t>(s.max_pending_reports)));
  session->decoder_.import_state(std::move(s.decoder));
  session->lint_.import_state(std::move(s.lint));
  session->detector_.import_state(std::move(s.detector));
  session->pending_ = std::move(s.pending);
  session->events_total_ = s.events_total;
  return session;
}

std::size_t DetectionSession::memory_bytes() const {
  return decoder_.buffered_bytes() + lint_.memory_bytes() +
         detector_.footprint().total() +
         pending_.capacity() * sizeof(RaceReport);
}

}  // namespace race2d
