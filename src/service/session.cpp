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
                                   DetectorEngine engine)
    : max_pending_reports_(max_pending_reports),
      lint_(gate_options()),
      detector_(engine == DetectorEngine::kDepa
                    ? std::variant<OnlineRaceDetector, DePaDetector>(
                          std::in_place_type<DePaDetector>, policy)
                    : std::variant<OnlineRaceDetector, DePaDetector>(
                          std::in_place_type<OnlineRaceDetector>, policy)) {
  // The initial line {root | program} — both engines number it task 0.
  std::visit([](auto& d) { d.on_root(); }, detector_);
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

void DetectionSession::drive(const TraceEvent& e) {
  std::visit(
      [&e](auto& d) {
        switch (e.op) {
          case TraceOp::kFork:
            // Lint enforced dense fork-order numbering, so the detector's
            // fresh id equals e.other by construction.
            d.on_fork(e.actor);
            break;
          case TraceOp::kJoin:   d.on_join(e.actor, e.other); break;
          case TraceOp::kHalt:   d.on_halt(e.actor); break;
          case TraceOp::kRead:   d.on_read(e.actor, e.loc); break;
          case TraceOp::kWrite:  d.on_write(e.actor, e.loc); break;
          case TraceOp::kRetire: d.on_retire(e.actor, e.loc); break;
          case TraceOp::kSync:
          case TraceOp::kFinishBegin:
          case TraceOp::kFinishEnd:
          case TraceOp::kAcquire:
          case TraceOp::kRelease:
            break;  // ordering no-ops for the §4 detector
        }
      },
      detector_);
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
      return false;
    }
    drive(e);
    ++events_total_;
    ++out.events;
    return true;
  };
  std::size_t run_idx = 0;
  for (std::size_t i = 0; i < scratch_.size() && !rejected;) {
    if (run_idx < runs_.size() && runs_[run_idx].first == i) {
      // A stationary compressed run: feed the materialized first repetition
      // per-event, then try to apply the `extra` unmaterialized repetitions
      // in one step (clean same-task access runs are full no-ops on every
      // engine state except the access ordinal). Fallback re-feeds the
      // template slice per-event — bit-identical, just slower.
      const DecodedRun run = runs_[run_idx++];
      for (std::size_t j = 0; j < run.len && !rejected; ++j)
        feed_one(scratch_[i + j]);
      if (rejected) break;
      const TraceEvent* tmpl = scratch_.data() + i;
      const bool applied = std::visit(
          [&](auto& d) {
            return d.try_apply_clean_run(tmpl, run.len, run.extra);
          },
          detector_);
      if (applied) {
        lint_.note_replayed(static_cast<std::uint64_t>(run.len) * run.extra);
        events_total_ += static_cast<std::uint64_t>(run.len) * run.extra;
        out.events += static_cast<std::uint64_t>(run.len) * run.extra;
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
  std::vector<RaceReport> fresh = std::visit(
      [](auto& d) { return d.mutable_reporter().take(); }, detector_);
  pending_.insert(pending_.end(), fresh.begin(), fresh.end());
  out.pending_reports = static_cast<std::uint32_t>(pending_.size());
  out.backpressure = pending_.size() * 2 >= max_pending_reports_;
  return out;
}

std::vector<RaceReport> DetectionSession::drain(std::uint32_t max_reports,
                                                bool& more) {
  const std::size_t n = (max_reports == 0 || max_reports >= pending_.size())
                            ? pending_.size()
                            : max_reports;
  std::vector<RaceReport> out(
      pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(n));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
  if (pending_.empty()) {
    // Actually release the backlog's buffer: draining is how a session's
    // footprint shrinks back under its quota.
    pending_.shrink_to_fit();
  }
  more = !pending_.empty();
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
                                   std::size_t max_pending_reports,
                                   DetectorEngine engine)
    : max_pending_reports_(max_pending_reports),
      lint_(gate_options()),
      detector_(engine == DetectorEngine::kDepa
                    ? std::variant<OnlineRaceDetector, DePaDetector>(
                          std::in_place_type<DePaDetector>, policy)
                    : std::variant<OnlineRaceDetector, DePaDetector>(
                          std::in_place_type<OnlineRaceDetector>, policy)) {
  // No on_root(): import installs the detector image (root included).
}

DetectionSession::State DetectionSession::export_state() const {
  R2D_REQUIRE(!poisoned(), "export_state: poisoned sessions do not snapshot");
  State s;
  s.policy = policy();
  s.engine = engine();
  s.max_pending_reports = max_pending_reports_;
  s.events_total = events_total_;
  s.fed_bytes = fed_bytes_;
  s.decoder = decoder_.export_state();
  s.lint = lint_.export_state();
  if (s.engine == DetectorEngine::kDsu)
    s.dsu = std::get<OnlineRaceDetector>(detector_).export_state();
  else
    s.depa = std::get<DePaDetector>(detector_).export_state();
  s.pending = pending_;
  return s;
}

std::unique_ptr<DetectionSession> DetectionSession::restore(State&& s) {
  std::unique_ptr<DetectionSession> session(new DetectionSession(
      RestoreTag{}, s.policy,
      static_cast<std::size_t>(s.max_pending_reports), s.engine));
  session->decoder_.import_state(std::move(s.decoder));
  session->lint_.import_state(std::move(s.lint));
  if (s.engine == DetectorEngine::kDsu)
    std::get<OnlineRaceDetector>(session->detector_)
        .import_state(std::move(s.dsu));
  else if (!std::get<DePaDetector>(session->detector_).import_state(s.depa))
    return nullptr;
  session->pending_ = std::move(s.pending);
  session->events_total_ = s.events_total;
  session->fed_bytes_ = s.fed_bytes;
  return session;
}

std::size_t DetectionSession::memory_bytes() const {
  return decoder_.buffered_bytes() + lint_.memory_bytes() +
         std::visit([](const auto& d) { return d.footprint().total(); },
                    detector_) +
         pending_.capacity() * sizeof(RaceReport) +
         scratch_.capacity() * sizeof(TraceEvent);
}

}  // namespace race2d
