#include "service/service.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "service/snapshot.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

constexpr std::size_t kMaxTombstones = 1024;
constexpr std::uint64_t kLastId = std::numeric_limits<std::uint32_t>::max();

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.fetch_add(by, std::memory_order_relaxed);
}

/// The least id other than 0 in `id`'s class mod `stride`.
std::uint64_t lowest_id(std::uint64_t id, std::uint64_t stride) {
  const std::uint64_t residue = id % stride;
  return residue == 0 ? stride : residue;
}

/// The id after `id` in its class, wrapping round past the last u32.
std::uint32_t next_id(std::uint64_t id, std::uint64_t stride) {
  return static_cast<std::uint32_t>(
      id + stride > kLastId ? lowest_id(id, stride) : id + stride);
}

Response no_free_id(Verb verb) {
  return error_response(verb, 0, ServiceStatus::kSessionLimit,
                        "no free session id: every id this shard hands out "
                        "is live, spilled or tombstoned");
}

}  // namespace

DetectionService::DetectionService(ServiceLimits limits)
    : limits_(limits), start_(std::chrono::steady_clock::now()) {
  R2D_REQUIRE(limits_.max_pending_reports >= 1,
              "DetectionService: max_pending_reports must be >= 1");
  if (!limits_.spill_dir.empty()) {
    // Best-effort creation; if the path stays unwritable every store fails
    // and the eviction falls back to tombstoning — degraded, never fatal.
    std::error_code ec;
    std::filesystem::create_directories(limits_.spill_dir, ec);
    spill_ = std::make_unique<SpillTier>(limits_.spill_dir,
                                         limits_.spill_budget_bytes);
  }
}

void DetectionService::configure_session_ids(std::uint32_t first,
                                             std::uint32_t stride) {
  R2D_REQUIRE(stride >= 1, "configure_session_ids: stride must be >= 1");
  R2D_REQUIRE(sessions_.empty() && next_session_ == 1,
              "configure_session_ids: call before any session exists");
  next_session_ = first == 0 ? stride : first;
  session_stride_ = stride;
}

Response DetectionService::handle(const Request& request) {
  switch (request.verb) {
    case Verb::kOpen:     return do_open(request);
    case Verb::kFeed:     return do_feed(request);
    case Verb::kDrain:    return do_drain(request);
    case Verb::kClose:    return do_close(request);
    case Verb::kStats:    return do_stats(request);
    case Verb::kSnapshot: return do_snapshot(request);
    case Verb::kRestore:  return do_restore(request);
  }
  return error_response(Verb::kStats, request.session,
                        ServiceStatus::kUnknownVerb,
                        "request verb outside the protocol");
}

DetectionService::Slot* DetectionService::find(std::uint32_t id, Verb verb,
                                               Response& failure) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) return &it->second;
  if (spill_ && spill_->contains(id)) return rehydrate(id, verb, failure);
  auto tomb = evicted_.find(id);
  if (tomb != evicted_.end()) {
    failure =
        error_response(verb, id, ServiceStatus::kQuotaEvicted, tomb->second);
    // CLOSE acknowledges the eviction and retires the tombstone.
    if (verb == Verb::kClose) evicted_.erase(tomb);
  } else {
    std::ostringstream os;
    os << "no session with id " << id;
    failure =
        error_response(verb, id, ServiceStatus::kUnknownSession, os.str());
  }
  return nullptr;
}

void DetectionService::remeasure(Slot& slot) {
  const std::size_t now = slot.session->memory_bytes();
  if (now >= slot.last_bytes)
    resident_bytes_.fetch_add(now - slot.last_bytes,
                              std::memory_order_relaxed);
  else
    resident_bytes_.fetch_sub(slot.last_bytes - now,
                              std::memory_order_relaxed);
  slot.last_bytes = now;
}

void DetectionService::drop(std::map<std::uint32_t, Slot>::iterator it) {
  resident_bytes_.fetch_sub(it->second.last_bytes, std::memory_order_relaxed);
  sessions_.erase(it);
  live_sessions_.store(sessions_.size(), std::memory_order_relaxed);
}

std::optional<std::uint32_t> DetectionService::free_id() const {
  const std::uint64_t stride = session_stride_;
  const std::uint64_t class_ids =
      (kLastId - lowest_id(next_session_, stride)) / stride + 1;
  // Each id refused below is a different taken one, so one try more than
  // there are taken ids finds a free id whenever the class has one.
  const std::uint64_t taken = sessions_.size() + evicted_.size() +
                              (spill_ ? spill_->sessions() : 0);
  std::uint32_t id = next_session_;
  for (std::uint64_t tries = std::min(class_ids, taken + 1); tries > 0;
       --tries) {
    if (!sessions_.contains(id) && !evicted_.contains(id) &&
        !(spill_ && spill_->contains(id)))
      return id;
    id = next_id(id, stride);
  }
  return std::nullopt;
}

void DetectionService::install(std::uint32_t id,
                               std::unique_ptr<DetectionSession> session,
                               std::size_t quota_bytes) {
  next_session_ = next_id(id, session_stride_);
  install_at(id, std::move(session), quota_bytes);
}

DetectionService::Slot* DetectionService::install_at(
    std::uint32_t id, std::unique_ptr<DetectionSession> session,
    std::size_t quota_bytes) {
  Slot slot;
  slot.quota_bytes = quota_bytes;
  slot.session = std::move(session);
  auto [it, inserted] = sessions_.emplace(id, std::move(slot));
  R2D_REQUIRE(inserted, "install_at: the session id is live already");
  live_sessions_.store(sessions_.size(), std::memory_order_relaxed);
  remeasure(it->second);
  return &it->second;
}

void DetectionService::keep_spare(std::unique_ptr<DetectionSession> session) {
  if (spares_.size() < kSpareSessions &&
      session->memory_bytes() <= kSpareBytes)
    spares_.push_back(std::move(session));
}

std::unique_ptr<DetectionSession> DetectionService::take_spare(
    std::size_t quota_bytes) {
  if (spares_.empty() ||
      spares_.back()->memory_bytes() > quota_bytes / kSpareQuotaRatio)
    return nullptr;
  std::unique_ptr<DetectionSession> session = std::move(spares_.back());
  spares_.pop_back();
  return session;
}

void DetectionService::tombstone(std::uint32_t id, std::string reason) {
  while (evicted_.size() >= kMaxTombstones) evicted_.erase(evicted_.begin());
  evicted_[id] = std::move(reason);
}

void DetectionService::evict(std::uint32_t id, const std::string& reason) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) drop(it);
  bump(sessions_evicted_);
  tombstone(id, reason);
}

void DetectionService::sync_spill_metrics() {
  if (!spill_) return;
  spilled_sessions_.store(spill_->sessions(), std::memory_order_relaxed);
  spill_bytes_.store(static_cast<std::size_t>(spill_->bytes()),
                     std::memory_order_relaxed);
}

bool DetectionService::try_spill(std::uint32_t id, Slot& slot) {
  if (!spill_ || slot.session->poisoned()) return false;
  const std::string blob = snapshot_session(*slot.session, slot.quota_bytes);
  SpillTier::StoreResult stored = spill_->store(id, blob);
  // LRU victims dropped from disk are gone for real — tombstone them so
  // their clients learn the fate instead of kUnknownSession.
  for (const std::uint32_t victim : stored.dropped) {
    bump(spill_drops_);
    tombstone(victim,
              "evicted: spill tier budget exceeded; spilled snapshot dropped");
  }
  sync_spill_metrics();
  if (stored.stored) bump(spills_);
  return stored.stored;
}

DetectionService::Slot* DetectionService::rehydrate(std::uint32_t id,
                                                    Verb verb,
                                                    Response& failure) {
  std::string error;
  std::optional<std::string> blob = spill_->load(id, &error);
  sync_spill_metrics();
  if (blob) {
    RestoreOutcome outcome = restore_session(*blob);
    if (outcome.session) {
      const std::size_t quota = static_cast<std::size_t>(
          std::min<std::uint64_t>(outcome.quota_bytes,
                                  limits_.session_quota_bytes));
      Slot* slot = install_at(id, std::move(outcome.session), quota);
      bump(rehydrations_);
      return slot;
    }
    error = std::move(outcome.error);
  }
  // A corrupt spill is consumed, never retried: tombstone with the K-coded
  // reason so later verbs answer deterministically.
  note_reject(ServiceStatus::kSnapshotReject);
  tombstone(id, error);
  failure = error_response(verb, id, ServiceStatus::kSnapshotReject,
                           std::move(error));
  return nullptr;
}

std::size_t DetectionService::evict_heaviest() {
  if (sessions_.empty()) return 0;
  auto heaviest = sessions_.begin();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second.last_bytes > heaviest->second.last_bytes) heaviest = it;
  }
  const std::size_t bytes = heaviest->second.last_bytes;
  if (try_spill(heaviest->first, heaviest->second)) {
    drop(heaviest);  // counted under spills, not evictions: it can come back
    return bytes;
  }
  std::ostringstream os;
  os << "evicted: global budget exceeded; this session was largest at "
     << bytes << " bytes";
  evict(heaviest->first, os.str());
  return bytes;
}

void DetectionService::note_reject(ServiceStatus status) {
  if (status == ServiceStatus::kLintReject) bump(lint_rejects_);
  if (status == ServiceStatus::kDecodeReject) bump(decode_rejects_);
  if (status == ServiceStatus::kBackpressure) bump(backpressure_hits_);
}

Response DetectionService::do_open(const Request& request) {
  const std::size_t quota =
      request.open.quota_bytes != 0
          ? std::min<std::size_t>(request.open.quota_bytes,
                                  limits_.session_quota_bytes)
          : limits_.session_quota_bytes;
  const std::optional<std::uint32_t> id = free_id();
  if (!id) return no_free_id(Verb::kOpen);
  std::unique_ptr<DetectionSession> session = take_spare(quota);
  if (session) {
    session->reset(request.open.policy, limits_.max_pending_reports);
    bump(sessions_recycled_);
  } else {
    session = std::make_unique<DetectionSession>(request.open.policy,
                                                 limits_.max_pending_reports);
  }
  install(*id, std::move(session), quota);
  bump(sessions_opened_);
  Response r;
  r.verb = Verb::kOpen;
  r.session = *id;
  return r;
}

Response DetectionService::do_feed(const Request& request) {
  Response failure;
  Slot* slot = find(request.session, Verb::kFeed, failure);
  if (slot == nullptr) return failure;
  bump(bytes_in_, request.bytes.size());
  DetectionSession::FeedOutcome outcome = slot->session->feed(request.bytes);
  bump(events_, outcome.events);
  remeasure(*slot);
  if (outcome.status != ServiceStatus::kOk) {
    note_reject(outcome.status);
    return error_response(Verb::kFeed, request.session, outcome.status,
                          std::move(outcome.message));
  }
  // Quota checks AFTER the feed: the session's footprint is only known once
  // the bytes are ingested. Graceful, not preventive — one frame of
  // overshoot, never unbounded growth.
  const std::size_t bytes = slot->last_bytes;
  if (bytes > slot->quota_bytes) {
    std::ostringstream os;
    os << "evicted: session footprint " << bytes
       << " bytes exceeds its quota of " << slot->quota_bytes << " bytes";
    std::string reason = os.str();
    evict(request.session, reason);
    return error_response(Verb::kFeed, request.session,
                          ServiceStatus::kQuotaEvicted, reason);
  }
  Response r;
  r.verb = Verb::kFeed;
  r.session = request.session;
  r.feed.events = outcome.events;
  r.feed.pending_reports = outcome.pending_reports;
  r.feed.backpressure = outcome.backpressure;
  return r;
}

Response DetectionService::do_drain(const Request& request) {
  Response failure;
  Slot* slot = find(request.session, Verb::kDrain, failure);
  if (slot == nullptr) return failure;
  Response r;
  r.verb = Verb::kDrain;
  r.session = request.session;
  // The answer must fit one frame; `more` brings the client back for the
  // rest.
  const std::uint32_t most =
      request.max_reports == 0
          ? kMaxDrainReports
          : std::min(request.max_reports, kMaxDrainReports);
  r.drain.reports = slot->session->drain(most, r.drain.more);
  remeasure(*slot);
  bump(reports_out_, r.drain.reports.size());
  return r;
}

Response DetectionService::do_close(const Request& request) {
  Response failure;
  Slot* slot = find(request.session, Verb::kClose, failure);
  if (slot == nullptr) return failure;
  DetectionSession::CloseOutcome outcome = slot->session->close();
  keep_spare(std::move(slot->session));
  drop(sessions_.find(request.session));
  bump(sessions_closed_);
  if (outcome.status != ServiceStatus::kOk) {
    note_reject(outcome.status);
    return error_response(Verb::kClose, request.session, outcome.status,
                          std::move(outcome.message));
  }
  Response r;
  r.verb = Verb::kClose;
  r.session = request.session;
  r.close.complete = outcome.complete;
  r.close.events = outcome.events;
  r.close.reports = outcome.reports;
  return r;
}

Response DetectionService::do_stats(const Request& request) {
  Response r;
  r.verb = Verb::kStats;
  r.session = request.session;
  r.message = metrics_json();
  return r;
}

Response DetectionService::do_snapshot(const Request& request) {
  Response failure;
  Slot* slot = find(request.session, Verb::kSnapshot, failure);
  if (slot == nullptr) return failure;
  if (slot->session->poisoned()) {
    note_reject(ServiceStatus::kSnapshotReject);
    return error_response(Verb::kSnapshot, request.session,
                          ServiceStatus::kSnapshotReject,
                          "K008: session not snapshotable (poisoned)");
  }
  std::string blob = snapshot_session(*slot->session, slot->quota_bytes);
  if (blob.size() > kMaxFrameBytes - 16) {
    std::ostringstream os;
    os << "K008: session not snapshotable (" << blob.size()
       << "-byte snapshot exceeds the frame cap)";
    return error_response(Verb::kSnapshot, request.session,
                          ServiceStatus::kSnapshotReject, os.str());
  }
  bump(snapshots_);
  Response r;
  r.verb = Verb::kSnapshot;
  r.session = request.session;
  r.blob = std::move(blob);
  return r;
}

Response DetectionService::do_restore(const Request& request) {
  if (request.bytes.empty() && request.session != 0) {
    // Explicit rehydrate: no blob, just the id of a (possibly spilled)
    // session. find() pulls it out of the cold tier; on a live session
    // this is an idempotent no-op.
    Response failure;
    Slot* slot = find(request.session, Verb::kRestore, failure);
    if (slot == nullptr) return failure;
    Response r;
    r.verb = Verb::kRestore;
    r.session = request.session;
    return r;
  }
  RestoreOutcome outcome = restore_session(request.bytes);
  if (!outcome.session) {
    note_reject(ServiceStatus::kSnapshotReject);
    return error_response(Verb::kRestore, 0, ServiceStatus::kSnapshotReject,
                          std::move(outcome.error));
  }
  // The blob records the session's effective quota so migration never
  // loosens a cap the original OPEN tightened; clamp to this service's own
  // per-session limit (OPEN may lower, never raise — same rule here).
  const std::size_t quota = static_cast<std::size_t>(
      std::min<std::uint64_t>(outcome.quota_bytes,
                              limits_.session_quota_bytes));
  const std::optional<std::uint32_t> id = free_id();
  if (!id) return no_free_id(Verb::kRestore);
  install(*id, std::move(outcome.session), quota);
  bump(restores_);
  Response r;
  r.verb = Verb::kRestore;
  r.session = *id;
  return r;
}

std::string DetectionService::metrics_json() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const std::uint64_t events = events_.load(std::memory_order_relaxed);
  const double events_per_second =
      uptime > 0.0 ? static_cast<double>(events) / uptime : 0.0;
  // Atomics only: this runs concurrently with feeds on the owning thread
  // (the pool's stats aggregator), so it must not touch the session map.
  std::ostringstream os;
  os << "{"
     << "\"uptime_seconds\":" << uptime
     << ",\"bytes_in\":" << bytes_in_.load(std::memory_order_relaxed)
     << ",\"events\":" << events
     << ",\"events_per_second\":" << events_per_second
     << ",\"reports_out\":" << reports_out_.load(std::memory_order_relaxed)
     << ",\"live_sessions\":" << live_sessions()
     << ",\"resident_bytes\":" << resident_bytes()
     << ",\"sessions_opened\":"
     << sessions_opened_.load(std::memory_order_relaxed)
     << ",\"sessions_closed\":"
     << sessions_closed_.load(std::memory_order_relaxed)
     << ",\"sessions_recycled\":"
     << sessions_recycled_.load(std::memory_order_relaxed)
     << ",\"sessions_evicted\":"
     << sessions_evicted_.load(std::memory_order_relaxed)
     << ",\"lint_rejects\":" << lint_rejects_.load(std::memory_order_relaxed)
     << ",\"decode_rejects\":"
     << decode_rejects_.load(std::memory_order_relaxed)
     << ",\"backpressure_hits\":"
     << backpressure_hits_.load(std::memory_order_relaxed)
     << ",\"snapshots\":" << snapshots_.load(std::memory_order_relaxed)
     << ",\"restores\":" << restores_.load(std::memory_order_relaxed)
     << ",\"spills\":" << spills_.load(std::memory_order_relaxed)
     << ",\"rehydrations\":" << rehydrations_.load(std::memory_order_relaxed)
     << ",\"spill_drops\":" << spill_drops_.load(std::memory_order_relaxed)
     << ",\"spilled_sessions\":" << spilled_sessions()
     << ",\"spill_bytes\":" << spill_bytes()
     << "}";
  return os.str();
}

}  // namespace race2d
