// DetectionService: one shard of detection sessions behind one verb
// dispatcher.
//
// The service is transport-independent — handle() maps one Request to one
// Response. It is the shard a WorkerPool runs on each worker thread
// (worker_pool.hpp), and the pool is what race2dd serves: frame decoding
// and counting, the live-session cap and the memory budget across all
// sessions belong to the pool. A shard keeps only the per-session rules:
//
//  * per-session quota: after every feed the session's byte-accounted
//    footprint is checked; an over-quota session is evicted — destroyed,
//    with a tombstone so the client's later verbs get kQuotaEvicted and the
//    reason, not kUnknownSession;
//  * eviction on command: evict_heaviest() removes the largest session
//    (greatest footprint, lowest id on ties); the pool calls it when its
//    budget overflows. With a spill directory configured, it SPILLS the
//    session instead: its snapshot blob is compressed to the bounded
//    on-disk cold tier (compress/spill_tier.hpp) and a later FEED — or an
//    explicit RESTORE with the session id and no blob — rehydrates it
//    transparently. Per-session quota violations stay fatal (a session
//    over its OWN quota would only thrash spill/rehydrate), as do corrupt
//    spill files (K009 / K010 in the rejection message) and spill-tier
//    budget drops;
//  * backpressure: sessions refuse feeds while their report backlog is at
//    max_pending_reports (the frame is not consumed; drain and resend).
//
// Eviction and rejection are answers, never crashes: every failure mode has
// a ServiceStatus and a message carrying the stable code that caused it.
//
// THREADING. Session state (the map, the slots, the tombstones) is owned by
// ONE thread — whoever calls handle(); the worker pool pins each service
// instance to its worker so the hot feed path takes no locks. The observers
// (metrics_json, live_sessions, resident_bytes) are safe from ANY thread:
// every counter they read is a relaxed atomic, and the resident-byte sum is
// maintained incrementally at each state change instead of walking the
// session map. This is what lets the pool's stats aggregator and global
// quota monitor read shard metrics concurrently with feeds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "compress/spill_tier.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"

namespace race2d {

struct ServiceLimits {
  /// Live sessions across the whole pool. Pool-wide: WorkerPool alone
  /// reads it.
  std::size_t max_sessions = 64;
  /// Default per-session footprint quota; OPEN may lower (not raise) it.
  std::size_t session_quota_bytes = 64u << 20;
  /// Budget over the footprints of every live session in the pool.
  /// Pool-wide: WorkerPool alone reads it, and meets it by sending
  /// evict_heaviest to its heaviest shard.
  std::size_t total_quota_bytes = 256u << 20;
  /// Report backlog per session before feeds bounce with kBackpressure.
  /// At least 1: a cap of 0 would refuse every feed for good.
  std::size_t max_pending_reports = 1u << 16;
  /// Non-empty enables the cold tier: evict_heaviest spills the session
  /// snapshot there instead of tombstoning. The directory must exist.
  /// Shards may share one directory (their session ids are disjoint).
  std::string spill_dir;
  /// Byte budget of the cold tier (COMPRESSED bytes on disk); the
  /// least-recently-spilled sessions are dropped past it.
  std::size_t spill_budget_bytes = 1u << 30;
};

class DetectionService {
 public:
  /// Throws ContractViolation when `limits.max_pending_reports` is 0.
  explicit DetectionService(ServiceLimits limits = {});

  /// The verb dispatcher. Total: every request gets a response. Must be
  /// called from the owning thread only (see the threading note above).
  Response handle(const Request& request);

  /// Session ids this instance hands out: first, first+stride, … — how the
  /// pool makes shard w's ids satisfy id % workers == w (sessions route to
  /// their shard by id alone). Call before any OPEN; stride >= 1.
  void configure_session_ids(std::uint32_t first, std::uint32_t stride);

  /// Evicts the single heaviest live session (lowest id on ties), spilling
  /// it when a cold tier is configured; returns the bytes freed, 0 when no
  /// session is live. The pool's budget command; owning thread only.
  std::size_t evict_heaviest();

  /// Point-in-time metrics as a single-line JSON object. Thread-safe.
  std::string metrics_json() const;

  /// Thread-safe observers (relaxed atomics; see the threading note).
  std::size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_relaxed);
  }
  std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t events_total() const {
    return events_.load(std::memory_order_relaxed);
  }
  std::size_t spilled_sessions() const {
    return spilled_sessions_.load(std::memory_order_relaxed);
  }
  std::size_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t rehydrations() const {
    return rehydrations_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::unique_ptr<DetectionSession> session;
    std::size_t quota_bytes = 0;
    std::size_t last_bytes = 0;  ///< footprint folded into resident_bytes_
  };

  Response do_open(const Request& request);
  Response do_feed(const Request& request);
  Response do_drain(const Request& request);
  Response do_close(const Request& request);
  Response do_stats(const Request& request);
  Response do_snapshot(const Request& request);
  Response do_restore(const Request& request);

  /// kUnknownSession / kQuotaEvicted lookup failure for `id`, or nullptr
  /// plus the live slot via `slot`. Rehydrates spilled sessions in passing.
  Slot* find(std::uint32_t id, Verb verb, Response& failure);
  void evict(std::uint32_t id, const std::string& reason);
  void note_reject(ServiceStatus status);
  /// Re-measures the slot's session and folds the delta into the resident
  /// sum — the incremental accounting every mutation ends with.
  void remeasure(Slot& slot);
  /// Installs a session under a fresh id (OPEN and RESTORE share this).
  std::uint32_t install(std::unique_ptr<DetectionSession> session,
                        std::size_t quota_bytes);
  /// Re-installs a rehydrated session under its ORIGINAL id, bypassing
  /// next_session_.
  Slot* install_at(std::uint32_t id, std::unique_ptr<DetectionSession> session,
                   std::size_t quota_bytes);
  void drop(std::map<std::uint32_t, Slot>::iterator it);
  /// Spills `slot`'s snapshot to the cold tier; false (caller tombstones)
  /// when the session is poisoned, the blob will not fit, or I/O fails.
  bool try_spill(std::uint32_t id, Slot& slot);
  /// Loads, restores and re-installs a spilled session; on failure the id
  /// is tombstoned with the K-coded reason and `failure` is filled.
  Slot* rehydrate(std::uint32_t id, Verb verb, Response& failure);
  void sync_spill_metrics();
  void tombstone(std::uint32_t id, std::string reason);

  ServiceLimits limits_;
  std::map<std::uint32_t, Slot> sessions_;  ///< ordered: eviction scans are
                                            ///< deterministic across runs
  /// Evicted-session tombstones: id → reason. Bounded (oldest dropped); a
  /// client of a long-gone eviction falls back to kUnknownSession.
  std::map<std::uint32_t, std::string> evicted_;
  std::uint32_t next_session_ = 1;
  std::uint32_t session_stride_ = 1;
  /// The cold tier; null unless limits_.spill_dir is set. Owned by the
  /// handling thread like the session map.
  std::unique_ptr<SpillTier> spill_;

  // Monotonic counters; any thread may read them (metrics_json), only the
  // owning thread writes. Relaxed suffices: each is an independent
  // statistic, no cross-counter invariant is promised to readers.
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> reports_out_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> sessions_evicted_{0};
  std::atomic<std::uint64_t> lint_rejects_{0};
  std::atomic<std::uint64_t> decode_rejects_{0};
  std::atomic<std::uint64_t> backpressure_hits_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> restores_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> rehydrations_{0};
  std::atomic<std::uint64_t> spill_drops_{0};
  std::atomic<std::size_t> live_sessions_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  /// Mirrors of the tier's gauges (the tier itself is single-threaded).
  std::atomic<std::size_t> spilled_sessions_{0};
  std::atomic<std::size_t> spill_bytes_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace race2d
