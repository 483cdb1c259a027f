#include "service/worker_pool.hpp"

#include <cerrno>
#include <future>
#include <sstream>
#include <system_error>
#include <utility>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "support/assert.hpp"

namespace race2d {

namespace {

void ring(int wake_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

}  // namespace

WorkerPool::Shard::~Shard() {
  if (epfd >= 0) ::close(epfd);
  if (wake_fd >= 0) ::close(wake_fd);
}

WorkerPool::WorkerPool(std::size_t workers, ServiceLimits limits)
    : limits_(limits) {
  R2D_REQUIRE(workers >= 1, "WorkerPool: need at least one worker");
  shards_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<DetectionService>(limits);
    // Shard w's ids ≡ w (mod workers); 0 is not a session id, so shard 0
    // starts at `workers`.
    shard->service->configure_session_ids(
        w == 0 ? static_cast<std::uint32_t>(workers)
               : static_cast<std::uint32_t>(w),
        static_cast<std::uint32_t>(workers));
    shard->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    // Edge-triggered: every ring is a fresh edge, so the loop never reads
    // the counter back down, which would cost a syscall per wake-up (the
    // 64-bit counter cannot fill up in practice).
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = shard->wake_fd;
    if (shard->epfd < 0 || shard->wake_fd < 0 ||
        ::epoll_ctl(shard->epfd, EPOLL_CTL_ADD, shard->wake_fd, &ev) != 0)
      throw std::system_error(errno, std::generic_category(),
                              "WorkerPool: shard loop setup");
    shards_.push_back(std::move(shard));
  }
  for (std::size_t w = 0; w < workers; ++w)
    shards_[w]->thread = std::thread([this, w] { loop(w); });
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    ring(shard->wake_fd);
  }
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
}

void WorkerPool::post_task(std::size_t shard_index,
                           std::function<void()> task) {
  Shard& shard = *shards_[shard_index];
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    was_empty = shard.mailbox.empty();
    shard.mailbox.push_back(std::move(task));
  }
  // The loop takes the whole mailbox after each edge, so a non-empty
  // mailbox always has a ring pending or is about to be taken.
  if (was_empty) ring(shard.wake_fd);
}

void WorkerPool::loop(std::size_t index) {
  Shard& shard = *shards_[index];
  epoll_event events[64];
  std::deque<std::function<void()>> batch;
  for (;;) {
    const int n = ::epoll_wait(shard.epfd, events, 64, -1);
    bool mail = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == shard.wake_fd)
        mail = true;
      else
        io_.load(std::memory_order_acquire)
            ->on_ready(index, events[i].data.fd, events[i].events);
    }
    // The mailbox goes last: one of its tasks may end the transport's use
    // of this loop, and no fd event of this batch may reach it afterwards.
    if (!mail) continue;
    bool stop = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      batch.swap(shard.mailbox);
      stop = shard.stop;
    }
    for (auto& task : batch) task();
    batch.clear();
    if (stop) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.mailbox.empty()) return;  // stop requested, mailbox drained
    }
  }
}

std::size_t WorkerPool::live_sessions() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->live_sessions();
  return sum;
}

std::size_t WorkerPool::resident_bytes() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->resident_bytes();
  return sum;
}

std::size_t WorkerPool::spilled_sessions() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->spilled_sessions();
  return sum;
}

std::uint64_t WorkerPool::rehydrations() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->rehydrations();
  return sum;
}

void WorkerPool::maybe_enforce_global() {
  if (resident_bytes() <= limits_.total_quota_bytes) return;
  bool expected = false;
  if (!evict_inflight_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel))
    return;  // a command is already on its way
  std::size_t heaviest = 0;
  std::size_t heaviest_bytes = 0;
  for (std::size_t w = 0; w < shards_.size(); ++w) {
    const std::size_t bytes = shards_[w]->service->resident_bytes();
    if (bytes > heaviest_bytes) {
      heaviest_bytes = bytes;
      heaviest = w;
    }
  }
  if (heaviest_bytes == 0) {
    evict_inflight_.store(false, std::memory_order_release);
    return;
  }
  post_task(heaviest, [this, heaviest] {
    shards_[heaviest]->service->evict_heaviest();
    evict_inflight_.store(false, std::memory_order_release);
    maybe_enforce_global();  // re-check: one eviction may not be enough
  });
}

std::size_t WorkerPool::route(const Request& request,
                              std::size_t home) const {
  return creates_session(request) || request.verb == Verb::kStats
             ? home
             : shard_of(request.session);
}

Response WorkerPool::stats(const Request& request) const {
  Response r;
  r.verb = Verb::kStats;
  r.session = request.session;
  r.message = metrics_json();
  return r;
}

Response WorkerPool::handle_on_shard(std::size_t shard,
                                     const Request& request) {
  if (request.verb == Verb::kStats) return stats(request);
  // The live-session cap. Each shard checks, then installs, one request at
  // a time, so creating requests racing on different shards overshoot it
  // by at most workers - 1. A rehydrate is exempt: its session was
  // admitted once already.
  if (creates_session(request) && live_sessions() >= limits_.max_sessions) {
    std::ostringstream os;
    os << "live-session cap reached (" << limits_.max_sessions << ")";
    return error_response(request.verb, 0, ServiceStatus::kSessionLimit,
                          os.str());
  }
  Response response = shards_[shard]->service->handle(request);
  if (request.verb == Verb::kFeed || request.verb == Verb::kRestore)
    maybe_enforce_global();
  return response;
}

void WorkerPool::submit(Request request, Callback done) {
  submit_to(next_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size(),
            std::move(request), std::move(done));
}

void WorkerPool::submit_to(std::size_t shard, Request request, Callback done) {
  if (request.verb == Verb::kStats) {  // atomics only: answered unqueued
    if (done) done(stats(request));
    return;
  }
  shard = route(request, shard);
  post_task(shard, [this, shard, request = std::move(request),
                    done = std::move(done)] {
    Response response = handle_on_shard(shard, request);
    if (done) done(std::move(response));
  });
}

Response WorkerPool::handle(const Request& request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(request,
         [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

bool WorkerPool::accept_frame(std::string_view payload, Request& request,
                              Response& bad) {
  std::string error;
  const bool ok = decode_request(payload, request, error);
  count_frame(!ok);
  if (!ok)
    bad = error_response(Verb::kStats, 0, ServiceStatus::kBadFrame,
                         std::move(error));
  return ok;
}

Response WorkerPool::framing_fault(std::string message) {
  count_frame(true);
  return error_response(Verb::kStats, 0, ServiceStatus::kBadFrame,
                        std::move(message));
}

Response WorkerPool::handle_frame(std::string_view payload) {
  Request request;
  Response bad;
  return accept_frame(payload, request, bad) ? handle(request) : bad;
}

std::string WorkerPool::metrics_json() const {
  std::uint64_t events = 0;
  std::size_t spilled = 0;
  std::size_t spill_bytes = 0;
  std::uint64_t rehydrations = 0;
  for (const auto& shard : shards_) {
    events += shard->service->events_total();
    spilled += shard->service->spilled_sessions();
    spill_bytes += shard->service->spill_bytes();
    rehydrations += shard->service->rehydrations();
  }
  std::ostringstream os;
  os << "{\"workers\":" << shards_.size()
     << ",\"frames\":" << frames_.load(std::memory_order_relaxed)
     << ",\"bad_frames\":" << bad_frames_.load(std::memory_order_relaxed)
     << ",\"live_sessions\":" << live_sessions()
     << ",\"resident_bytes\":" << resident_bytes()
     << ",\"spilled_sessions\":" << spilled
     << ",\"spill_bytes\":" << spill_bytes
     << ",\"rehydrations\":" << rehydrations
     << ",\"events\":" << events << ",\"shards\":[";
  for (std::size_t w = 0; w < shards_.size(); ++w) {
    if (w != 0) os << ",";
    os << shards_[w]->service->metrics_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace race2d
