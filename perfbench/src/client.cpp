#include "client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

using namespace race2d;

namespace {

void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void recv_all(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw std::runtime_error("race2dd closed the connection");
    if (n < 0) throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

struct OpenSession {
  const SessionSpec* spec = nullptr;
  std::uint32_t id = 0;
  bool ok = true;
  Clock::time_point start;
  std::vector<RaceReport> got;
};

class Connection {
 public:
  Connection(Transport& t, LoopStats& stats, Clock::time_point loop_start)
      : t_(t), stats_(stats), loop_start_(loop_start) {}

  Response call(const Request& r) {
    double us = 0.0;
    return call(r, us);
  }

  Response call(const Request& r, double& us) {
    Response resp = t_.call(r, us);
    ++stats_.requests;
    if (resp.status != ServiceStatus::kOk) ++stats_.failed;
    return resp;
  }

  /// One FEED round trip: its latency, when it completed, and the logical
  /// events it carried (0 when refused).
  Response timed_feed(const Request& r) {
    double us = 0.0;
    Response resp = call(r, us);
    stats_.feed_us.push_back(us);
    stats_.feed_t.push_back(seconds_between(loop_start_, Clock::now()));
    stats_.feed_events.push_back(
        resp.status == ServiceStatus::kOk ? resp.feed.events : 0);
    return resp;
  }

  void open(OpenSession& s) {
    s.start = Clock::now();
    Request r;
    r.verb = Verb::kOpen;
    r.open.policy = s.spec->policy;
    r.open.engine = s.spec->engine;
    const Response resp = call(r);
    s.ok = resp.status == ServiceStatus::kOk;
    s.id = resp.session;
  }

  void drain(OpenSession& s) {
    Request r;
    r.verb = Verb::kDrain;
    r.session = s.id;
    for (;;) {
      Response resp = call(r);
      if (resp.status != ServiceStatus::kOk) {
        s.ok = false;
        return;
      }
      stats_.reports += resp.drain.reports.size();
      s.got.insert(s.got.end(), resp.drain.reports.begin(),
                   resp.drain.reports.end());
      if (!resp.drain.more) return;
    }
  }

  void feed(OpenSession& s, const std::string& frame) {
    Request r;
    r.verb = Verb::kFeed;
    r.session = s.id;
    r.bytes = frame;
    Response resp = timed_feed(r);
    if (resp.status == ServiceStatus::kBackpressure) {
      // The frame was not consumed (and the bounce counted as a failure):
      // drain, then resend it once.
      drain(s);
      resp = timed_feed(r);
    }
    ++stats_.frames;
    if (resp.status != ServiceStatus::kOk) {
      s.ok = false;
      return;
    }
    if (resp.feed.backpressure) drain(s);
  }

  void close(OpenSession& s) {
    Request r;
    r.verb = Verb::kClose;
    r.session = s.id;
    const Response resp = call(r);
    stats_.session_ms.push_back(us_since(s.start) / 1000.0);
    const bool right = s.ok && resp.status == ServiceStatus::kOk &&
                       resp.close.complete &&
                       resp.close.events == s.spec->events &&
                       s.got == s.spec->expected;
    if (!right) ++stats_.mismatched;
    ++stats_.sessions;
    stats_.events += s.spec->events;
  }

 private:
  Transport& t_;
  LoopStats& stats_;
  Clock::time_point loop_start_;
};

void connection_main(const Workload& w, std::size_t conn, Transport& t,
                     Clock::time_point start, Clock::time_point deadline,
                     std::size_t limit, LoopStats& stats) {
  std::vector<const SessionSpec*> mine;
  for (std::size_t i = conn; i < w.sessions.size(); i += w.connections)
    mine.push_back(&w.sessions[i]);
  if (mine.empty()) return;
  Connection c(t, stats, start);
  std::size_t cursor = 0;
  while (limit != 0 ? stats.sessions < limit : Clock::now() < deadline) {
    OpenSession s;
    s.spec = mine[cursor++ % mine.size()];
    c.open(s);
    for (const std::string& frame : s.spec->frames)
      if (s.ok) c.feed(s, frame);
    if (s.ok) c.drain(s);
    c.close(s);
  }
}

}  // namespace

SocketTransport::SocketTransport(const std::string& path)
    : fd_(try_connect(path)) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to " + path);
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

int SocketTransport::try_connect(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Response SocketTransport::call(const Request& request, double& us) {
  const std::string payload = encode_request(request);
  std::string frame(4 + payload.size(), '\0');
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  std::memcpy(frame.data() + 4, payload.data(), payload.size());

  const Clock::time_point start = Clock::now();
  send_all(fd_, frame.data(), frame.size());
  unsigned char header[4];
  recv_all(fd_, reinterpret_cast<char*>(header), 4);
  const std::uint32_t rlen = header[0] | (header[1] << 8) | (header[2] << 16) |
                             (std::uint32_t{header[3]} << 24);
  if (rlen > kMaxFrameBytes) throw std::runtime_error("oversized response");
  std::string body(rlen, '\0');
  recv_all(fd_, body.data(), rlen);
  us = us_since(start);

  Response response;
  std::string error;
  if (!decode_response(body, response, error))
    throw std::runtime_error("undecodable response: " + error);
  return response;
}

Response PoolTransport::call(const Request& request, double& us) {
  const Clock::time_point start = Clock::now();
  Response r = pool_->handle(request);
  us = us_since(start);
  return r;
}

Response ServiceTransport::call(const Request& request, double& us) {
  std::lock_guard<std::mutex> lock(*mu_);
  const Clock::time_point start = Clock::now();
  Response r = service_->handle(request);
  us = us_since(start);
  return r;
}

void LoopStats::merge(const LoopStats& o) {
  feed_us.insert(feed_us.end(), o.feed_us.begin(), o.feed_us.end());
  feed_t.insert(feed_t.end(), o.feed_t.begin(), o.feed_t.end());
  feed_events.insert(feed_events.end(), o.feed_events.begin(),
                     o.feed_events.end());
  session_ms.insert(session_ms.end(), o.session_ms.begin(), o.session_ms.end());
  requests += o.requests;
  failed += o.failed;
  mismatched += o.mismatched;
  sessions += o.sessions;
  events += o.events;
  reports += o.reports;
  frames += o.frames;
}

LoopResult run_closed_loop(const Workload& w, const TransportFactory& factory,
                           double seconds, std::size_t sessions_per_connection,
                           double tick_s, const std::function<void()>& on_tick) {
  std::vector<std::unique_ptr<Transport>> transports;
  for (std::size_t c = 0; c < w.connections; ++c)
    transports.push_back(factory());
  std::vector<LoopStats> stats(w.connections);
  std::vector<std::string> errors(w.connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < w.connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          connection_main(w, c, *transports[c], start, deadline,
                          sessions_per_connection, stats[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    if (on_tick) {
      for (int k = 1; k * tick_s <= seconds; ++k) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k * tick_s)));
        on_tick();
      }
    }
  }
  LoopResult result;
  result.window_s = seconds_between(start, Clock::now());
  for (std::size_t c = 0; c < w.connections; ++c) {
    if (!errors[c].empty()) throw std::runtime_error(errors[c]);
    result.stats.merge(stats[c]);
  }
  return result;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[idx];
}

}  // namespace perfbench
