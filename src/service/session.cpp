#include "service/session.hpp"

#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace race2d {

namespace {

/// The session's lint gate mirrors require_lint_clean(): errors only (a
/// hygiene warning must not kill a live stream), stop early — one finding
/// poisons the session and is all the error message carries.
TraceLintOptions gate_options() {
  TraceLintOptions options;
  options.warnings = false;
  options.max_diagnostics = 8;
  return options;
}

}  // namespace

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

  scratch_.clear();
  runs_.clear();
  try {
    decoder_.feed(bytes.data(), bytes.size(), scratch_, &runs_);
  } catch (const TraceDecodeError& e) {
    return poison(ServiceStatus::kDecodeReject, e.what());
  }
  fed_bytes_ += bytes.size();

  FeedOutcome out;
  bool rejected = false;
  const auto feed_one = [&](const TraceEvent& e) {
    if (!lint_.feed(e)) {
      // The offending event never reaches the detector; everything decoded
      // before it was already checked and detected.
      rejected = true;
      return;
    }
    // Lint enforced dense fork-order numbering, so the detector's fresh id
    // equals e.other by construction.
    apply_event(detector_, e);
    ++events_total_;
    ++out.events;
  };
  std::size_t run_idx = 0;
  for (std::size_t i = 0; i < scratch_.size() && !rejected;) {
    if (run_idx < runs_.size() && runs_[run_idx].first == i) {
      // A stationary compressed run: feed the materialized first repetition
      // per-event, then try to apply the `extra` unmaterialized repetitions
      // in one step (clean same-task access runs are full no-ops on the
      // detector's state except the access ordinal). Fallback re-feeds the
      // template slice per-event — bit-identical, just slower.
      const DecodedRun run = runs_[run_idx++];
      for (std::size_t j = 0; j < run.len && !rejected; ++j)
        feed_one(scratch_[i + j]);
      if (rejected) break;
      const TraceEvent* tmpl = scratch_.data() + i;
      if (detector_.try_apply_clean_run(tmpl, run.len, run.extra)) {
        const std::uint64_t folded =
            static_cast<std::uint64_t>(run.len) * run.extra;
        lint_.note_replayed(folded);
        events_total_ += folded;
        out.events += folded;
      } else {
        for (std::uint64_t r = 0; r < run.extra && !rejected; ++r)
          for (std::size_t j = 0; j < run.len && !rejected; ++j)
            feed_one(tmpl[j]);
      }
      i += run.len;
    } else {
      feed_one(scratch_[i]);
      ++i;
    }
  }
  if (rejected)
    return poison(ServiceStatus::kLintReject,
                  to_string(lint_.result().first_error()));
  // Move this feed's fresh reports into the drain queue; the reporter's
  // totals (any/count/first) keep describing the whole session.
  std::vector<RaceReport> fresh = detector_.mutable_reporter().take();
  pending_.insert(pending_.end(), fresh.begin(), fresh.end());
  out.pending_reports = static_cast<std::uint32_t>(pending_reports());
  out.backpressure = pending_reports() * 2 >= max_pending_reports_;
  return out;
}

std::vector<RaceReport> DetectionSession::drain(std::uint32_t max_reports,
                                                bool& more) {
  const std::size_t left = pending_reports();
  const std::size_t n =
      (max_reports == 0 || max_reports >= left) ? left : max_reports;
  const auto first =
      pending_.begin() + static_cast<std::ptrdiff_t>(drained_);
  std::vector<RaceReport> out(first, first + static_cast<std::ptrdiff_t>(n));
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
      lint_(gate_options()),
      detector_(policy) {
  // No on_root(): a restore imports the detector image (root included).
}

DetectionSession::State DetectionSession::export_state() const {
  R2D_REQUIRE(!poisoned(), "export_state: poisoned sessions do not snapshot");
  State s;
  s.policy = policy();
  s.max_pending_reports = max_pending_reports_;
  s.events_total = events_total_;
  s.fed_bytes = fed_bytes_;
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
  session->fed_bytes_ = s.fed_bytes;
  return session;
}

std::size_t DetectionSession::memory_bytes() const {
  return decoder_.buffered_bytes() + lint_.memory_bytes() +
         detector_.footprint().total() +
         pending_.capacity() * sizeof(RaceReport) +
         scratch_.capacity() * sizeof(TraceEvent) +
         runs_.capacity() * sizeof(DecodedRun);
}

}  // namespace race2d
