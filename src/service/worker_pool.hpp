// WorkerPool: the multi-core detection service.
//
// N shard threads, each owning one DetectionService OUTRIGHT — sessions are
// pinned to shard `session_id % N`, and shard w only ever hands out ids
// ≡ w (mod N) (configure_session_ids), so a session's entire lifetime
// happens on one thread and the hot FEED path takes no locks at all.
//
// Each shard thread is an epoll event loop. Its set holds the shard's
// MAILBOX — a mutex-guarded job queue plus an eventfd that rings when the
// queue goes non-empty — and whatever fds a transport registers on it (the
// socket server's connections, see server.hpp). The mailbox carries every
// cross-thread hand-over: submitted requests, the budget's EvictHeaviest
// commands, and the transport's tasks (connection hand-offs, forwarded
// completions). Routing:
//
//   * OPEN / RESTORE-with-blob create a session where they run. Over a
//     socket that is the connection's own shard, inline; through submit()
//     (the pipe transport, in-process callers) it is the next shard in
//     round-robin order. RESTORE is how a snapshot MIGRATES between
//     workers: the restored session gets a fresh id from that shard;
//   * FEED / DRAIN / CLOSE / SNAPSHOT / blobless RESTORE (rehydrate a
//     spilled session) route to the owning shard by id (route());
//   * STATS aggregates every shard's thread-safe atomic counters on the
//     calling thread — no queueing, no locks against feeds;
//   * the live-session cap is checked on the shard, just before the
//     session-creating request runs (handle_on_shard);
//   * the memory budget is enforced by watching the shards' atomic
//     resident-byte sums after feeds and posting an EvictHeaviest command
//     to the heaviest shard's mailbox, one command at a time (the shard
//     evicts on its own thread — governance never touches another thread's
//     sessions).
//
// The pool alone owns those two rules and the frame counters; each shard's
// DetectionService enforces only the per-session ones (quota, backpressure,
// spill and rehydrate). Every request but STATS reaches its shard's service
// through handle_on_shard.
//
// submit() is safe from any thread; the completion callback runs on the
// shard thread that handled the request (or inline on the submitting thread
// for STATS). handle()/handle_frame() are the synchronous wrappers the pipe
// transport and tests use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"

namespace race2d {

class WorkerPool {
 public:
  /// Spawns `workers` shard threads (>= 1), each serving a DetectionService
  /// built from `limits` as they are. The pool alone reads
  /// `limits.max_sessions` and `limits.total_quota_bytes`, across all
  /// shards.
  WorkerPool(std::size_t workers, ServiceLimits limits = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  using Callback = std::function<void(Response)>;

  /// Routes `request` to its shard (see the routing rules above) and calls
  /// `done` exactly once with the response. Safe from any thread.
  void submit(Request request, Callback done);

  /// Like submit, but forces OPEN/RESTORE onto shard `shard` (tests that
  /// pin a restore to a specific worker). Session-addressed verbs still
  /// route by id — the pin would break the ownership invariant.
  void submit_to(std::size_t shard, Request request, Callback done);

  /// Synchronous submit: blocks until the response is ready.
  Response handle(const Request& request);

  // ---- The frame entry: where both transports hand in what they read ----
  // Frames are counted here and nowhere else, and every kBadFrame answer
  // is built here. Thread-safe.

  /// Decodes `payload` into `request` and counts the frame. An
  /// undecodable payload counts as bad and returns false with its answer
  /// in `bad`; the framing is intact, so the stream goes on.
  bool accept_frame(std::string_view payload, Request& request,
                    Response& bad);
  /// Counts a framing fault (an oversized length prefix, or a stream that
  /// ends inside a frame) and returns its answer. Frame boundaries are
  /// lost, so the transport answers once and stops reading the stream.
  Response framing_fault(std::string message);
  /// accept_frame, then handle: the pipe transport's whole step.
  Response handle_frame(std::string_view payload);

  /// Pool-wide metrics JSON: aggregate counters plus one nested object per
  /// shard. Thread-safe (atomics only).
  std::string metrics_json() const;

  std::size_t worker_count() const { return shards_.size(); }
  std::size_t shard_of(std::uint32_t session) const {
    return session % shards_.size();
  }
  /// The shard that runs `request` when it arrives at shard `home`: `home`
  /// itself for OPEN, RESTORE with a blob and STATS, otherwise the owner of
  /// the session the request names.
  std::size_t route(const Request& request, std::size_t home) const;
  std::size_t live_sessions() const;
  std::size_t resident_bytes() const;
  /// Cold-tier aggregates across shards (0 when no spill dir is configured).
  std::size_t spilled_sessions() const;
  std::uint64_t rehydrations() const;

  // ---- The shard loops as a transport drives them (serve_unix_socket) ----

  /// The connection layer the shard loops serve. Shard w's loop calls
  /// on_ready(w, fd, events), on its own thread, for every ready fd a
  /// transport registered in loop_fd(w) with `data.fd = fd`.
  class Io {
   public:
    virtual void on_ready(std::size_t shard, int fd, std::uint32_t events) = 0;

   protected:
    ~Io() = default;
  };

  /// Installs the connection layer; nullptr removes it. Install it before
  /// registering the first fd, and remove it only once no loop watches any
  /// fd of it.
  void attach(Io* io) { io_.store(io, std::memory_order_release); }
  /// Shard `shard`'s epoll set. Register fds in it only from that shard's
  /// own thread (a task, or on_ready).
  int loop_fd(std::size_t shard) const { return shards_[shard]->epfd; }
  /// Runs `task` on shard `shard`'s thread, after every task posted to
  /// that shard before it. Safe from any thread.
  void post_task(std::size_t shard, std::function<void()> task);
  /// Runs `request` inline on shard `shard`: the one door through which
  /// every request but STATS, submitted or socket-borne, reaches a shard's
  /// service, and where the session cap and the budget apply. Call it only
  /// on shard `shard`'s own thread and only when route(request, shard) ==
  /// shard.
  Response handle_on_shard(std::size_t shard, const Request& request);

  /// Drains every mailbox and joins the shard threads. Idempotent; the
  /// destructor calls it. No submit() may race or follow shutdown().
  void shutdown();

 private:
  struct Shard {
    std::unique_ptr<DetectionService> service;
    std::mutex mu;
    /// MPSC: any thread posts, the loop drains.
    std::deque<std::function<void()>> mailbox;
    bool stop = false;
    int epfd = -1;
    int wake_fd = -1;  ///< the mailbox's eventfd, in epfd
    std::thread thread;
    ~Shard();
  };

  void loop(std::size_t index);
  void count_frame(bool bad) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (bad) bad_frames_.fetch_add(1, std::memory_order_relaxed);
  }
  Response stats(const Request& request) const;
  /// Posts EvictHeaviest to the heaviest shard while the pool-wide resident
  /// sum exceeds the budget (one command in flight at a time).
  void maybe_enforce_global();

  ServiceLimits limits_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_shard_{0};  ///< OPEN/RESTORE round-robin
  std::atomic<bool> evict_inflight_{false};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<Io*> io_{nullptr};
  bool stopped_ = false;
};

}  // namespace race2d
