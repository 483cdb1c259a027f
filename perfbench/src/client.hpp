// The benchmark's closed-loop client and the transports it drives.
//
// One client connection runs one thread. It opens a session, feeds it its
// frames, drains whenever a FEED response raises the backpressure flag,
// then drains and closes it and checks the drained report stream against
// the session's expected reports. It repeats with the next session of its
// share of the pool until the deadline passes, finishing the session it has
// open. Each request waits for its response before the next is sent, as
// every race2dd caller does.
//
// The same loop drives three transports, so the traced run can split a
// FEED's round trip by layer: the race2dd socket, an in-process WorkerPool,
// and an in-process DetectionService.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/worker_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends one request and returns its response; `us` receives the time
  /// the transport attributes to the call.
  virtual race2d::Response call(const race2d::Request& request,
                                double& us) = 0;
};

/// One AF_UNIX connection to race2dd. Time: send to complete response.
class SocketTransport : public Transport {
 public:
  /// Connects to `path`; throws std::runtime_error on failure.
  explicit SocketTransport(const std::string& path);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  race2d::Response call(const race2d::Request& request, double& us) override;

  /// One connect attempt; returns the fd or -1.
  static int try_connect(const std::string& path);

 private:
  int fd_ = -1;
};

/// WorkerPool::handle. Time: the synchronous pool call.
class PoolTransport : public Transport {
 public:
  explicit PoolTransport(race2d::WorkerPool& pool) : pool_(&pool) {}
  race2d::Response call(const race2d::Request& request, double& us) override;

 private:
  race2d::WorkerPool* pool_;
};

/// DetectionService::handle behind a mutex (the service is single-owner).
/// Time: the handle call alone, not the wait for the lock.
class ServiceTransport : public Transport {
 public:
  ServiceTransport(race2d::DetectionService& service, std::mutex& mu)
      : service_(&service), mu_(&mu) {}
  race2d::Response call(const race2d::Request& request, double& us) override;

 private:
  race2d::DetectionService* service_;
  std::mutex* mu_;
};

struct LoopStats {
  std::vector<double> feed_us;  ///< per FEED, as the transport timed it
  std::vector<double> feed_t;   ///< per FEED: completion, s after loop start
  std::vector<std::uint64_t> feed_events;  ///< per FEED: events it carried
  std::vector<double> session_ms;  ///< OPEN sent to CLOSE answered
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;      ///< responses with a non-OK status
  std::uint64_t mismatched = 0;  ///< sessions whose reports were wrong
  std::uint64_t sessions = 0;    ///< sessions closed
  std::uint64_t events = 0;      ///< logical events of closed sessions
  std::uint64_t reports = 0;     ///< reports drained
  std::uint64_t frames = 0;      ///< FEED frames sent

  void merge(const LoopStats& other);
};

struct LoopResult {
  LoopStats stats;
  double window_s = 0.0;  ///< first request sent to last response received
};

using TransportFactory = std::function<std::unique_ptr<Transport>()>;

/// Runs w.connections client threads, each over its own transport from
/// `factory`, until `seconds` have passed (open sessions are finished).
/// With `sessions_per_connection` > 0 each connection instead stops after
/// that many sessions. `on_tick`, when set, runs on the calling thread
/// every `tick_s` seconds of the window.
LoopResult run_closed_loop(const Workload& w, const TransportFactory& factory,
                           double seconds,
                           std::size_t sessions_per_connection = 0,
                           double tick_s = 0.0,
                           const std::function<void()>& on_tick = {});

/// Sorted-copy percentile (nearest rank); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

}  // namespace perfbench
