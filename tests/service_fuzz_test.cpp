// Client battery for the socket server, whose connections are served by the
// pool's shard loops: seeded random malformed frames, valid frames split at
// arbitrary byte boundaries, oversized length prefixes, and mid-session
// disconnects — all while a well-behaved control session streams on another
// connection. The server must never crash, never leak sessions, and never
// corrupt the control session's report stream. Further tests pin where
// sessions are placed, the forwarding of requests between shard loops, and
// the accept pause under fd exhaustion, and that a framing fault reads the
// same on the socket as on the pipe. scripts/check.sh runs this under TSan
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace race2d {
namespace {

Trace generated(std::uint64_t seed) {
  return generate_trace(FuzzPlan::from_seed(seed)).trace;
}

std::string socket_path() {
  std::ostringstream os;
  os << "/tmp/race2d-fuzz-" << ::getpid() << ".sock";
  return os.str();
}

/// The server under test: a 4-worker pool whose shard loops serve the
/// connections, accepted on the fixture's own thread until stop() — exactly
/// the production topology.
struct ServerFixture {
  WorkerPool pool{4};
  std::atomic<bool> stop_flag{false};
  std::ostringstream log;
  std::string path = socket_path();
  std::thread thread;
  int rc = -2;

  ServerFixture() {
    thread = std::thread(
        [this] { rc = serve_unix_socket(path, pool, log, &stop_flag); });
    // The listener is up once connect succeeds.
    for (int i = 0; i < 200; ++i) {
      const int fd = try_connect();
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server never came up: " << log.str();
  }

  ~ServerFixture() {
    stop_flag.store(true, std::memory_order_release);
    thread.join();
    EXPECT_EQ(rc, 0) << log.str();
  }

  int try_connect() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
};

bool write_all(int fd, const void* buf, std::size_t size) {
  const char* p = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: the server legitimately hangs up on framing abuse; that
    // must read as a failed send, not a SIGPIPE killing the test binary.
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // server hung up on us (e.g. after a framing error)
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, void* buf, std::size_t size) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// `payload` behind its u32le length prefix.
std::string framed(const std::string& payload) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<char>((payload.size() >> (8 * i)) & 0xffu);
  return out + payload;
}

/// Writes a frame in randomly-sized slices (possibly 1 byte at a time),
/// exercising the server's reassembly across arbitrary splits.
bool write_frame_split(int fd, const std::string& payload, Xoshiro256& rng) {
  const std::string framed = race2d::framed(payload);
  std::size_t off = 0;
  while (off < framed.size()) {
    const std::size_t n = static_cast<std::size_t>(
        rng.range(1, std::min<std::uint64_t>(framed.size() - off, 37)));
    if (!write_all(fd, framed.data() + off, n)) return false;
    off += n;
    if (rng.chance(0.2))
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool read_response(int fd, Response& rsp) {
  unsigned char len[4];
  if (!read_exact(fd, len, 4)) return false;
  std::uint32_t rlen = 0;
  for (int i = 0; i < 4; ++i)
    rlen |= static_cast<std::uint32_t>(len[i]) << (8 * i);
  if (rlen > kMaxFrameBytes) return false;
  std::string body(rlen, '\0');
  if (rlen > 0 && !read_exact(fd, body.data(), rlen)) return false;
  std::string error;
  return decode_response(body, rsp, error);
}

/// One adversarial connection driven by `seed`: a random mix of garbage,
/// oversized frames, byte-split valid requests, and abrupt disconnects.
/// Returns the number of responses read (sanity only — the real assertions
/// are "server stays up" and the control-session checks).
std::size_t adversarial_connection(const ServerFixture& server,
                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const int fd = server.try_connect();
  if (fd < 0) return 0;
  std::size_t responses = 0;
  std::uint32_t open_session_id = 0;
  const int actions = static_cast<int>(rng.range(3, 12));
  for (int a = 0; a < actions; ++a) {
    switch (rng.below(6)) {
      case 0: {  // plain garbage bytes, not even a plausible frame
        std::string junk(rng.range(1, 64), '\0');
        for (char& c : junk) c = static_cast<char>(rng.below(256));
        if (!write_all(fd, junk.data(), junk.size())) goto done;
        break;
      }
      case 1: {  // oversized length prefix: instant framing error
        const std::uint32_t huge =
            kMaxFrameBytes + static_cast<std::uint32_t>(rng.range(1, 1 << 20));
        unsigned char len[4];
        for (int i = 0; i < 4; ++i)
          len[i] = static_cast<unsigned char>((huge >> (8 * i)) & 0xffu);
        if (!write_all(fd, len, 4)) goto done;
        Response rsp;  // server answers kBadFrame, then drops the stream
        if (read_response(fd, rsp)) ++responses;
        goto done;
      }
      case 2: {  // well-formed OPEN, split at random byte boundaries
        Request req;
        req.verb = Verb::kOpen;
        if (!write_frame_split(fd, encode_request(req), rng)) goto done;
        Response rsp;
        if (!read_response(fd, rsp)) goto done;
        ++responses;
        if (rsp.status == ServiceStatus::kOk) open_session_id = rsp.session;
        break;
      }
      case 3: {  // feed (maybe to a bogus session), split arbitrarily
        Request req;
        req.verb = Verb::kFeed;
        req.session = rng.chance(0.5) && open_session_id != 0
                          ? open_session_id
                          : static_cast<std::uint32_t>(rng.below(1 << 16));
        std::string junk(rng.range(0, 512), '\0');
        for (char& c : junk) c = static_cast<char>(rng.below(256));
        req.bytes = junk;
        if (!write_frame_split(fd, encode_request(req), rng)) goto done;
        Response rsp;
        if (!read_response(fd, rsp)) goto done;
        ++responses;
        break;
      }
      case 4: {  // a frame whose payload fails request decode (bad verb)
        std::string payload(rng.range(1, 16), '\0');
        payload[0] = static_cast<char>(rng.range(8, 255));
        if (!write_frame_split(fd, payload, rng)) goto done;
        Response rsp;
        if (!read_response(fd, rsp)) goto done;
        ++responses;
        break;
      }
      default: {  // start a frame, then vanish mid-payload
        Request req;
        req.verb = Verb::kFeed;
        req.session = open_session_id;
        req.bytes = std::string(64, 'x');
        const std::string payload = encode_request(req);
        unsigned char len[4];
        for (int i = 0; i < 4; ++i)
          len[i] = static_cast<unsigned char>((payload.size() >> (8 * i)) &
                                              0xffu);
        (void)write_all(fd, len, 4);
        (void)write_all(fd, payload.data(), payload.size() / 2);
        goto done;  // disconnect with the frame (and maybe a session) open
      }
    }
  }
done:
  ::close(fd);
  return responses;
}

TEST(ServiceFuzz, AdversarialClientsNeverCrashLeakOrCorrupt) {
  ServerFixture server;

  // The control stream: a correct client on its own connection, running
  // concurrently with the attackers; its reports must come out exact.
  const Trace trace = generated(4242);
  const std::string wire = trace_to_binary(trace);
  const std::vector<RaceReport> expected = detect_races_trace(trace);
  std::atomic<bool> control_ok{true};
  std::thread control([&] {
    const int fd = server.try_connect();
    if (fd < 0) {
      control_ok = false;
      return;
    }
    Xoshiro256 rng(1);
    Request open;
    open.verb = Verb::kOpen;
    Response rsp;
    if (!write_frame_split(fd, encode_request(open), rng) ||
        !read_response(fd, rsp) || rsp.status != ServiceStatus::kOk) {
      control_ok = false;
      ::close(fd);
      return;
    }
    const std::uint32_t id = rsp.session;
    for (std::size_t off = 0; off < wire.size(); off += 128) {
      Request feed;
      feed.verb = Verb::kFeed;
      feed.session = id;
      feed.bytes = wire.substr(off, std::min<std::size_t>(128, wire.size() - off));
      if (!write_frame_split(fd, encode_request(feed), rng) ||
          !read_response(fd, rsp) || rsp.status != ServiceStatus::kOk) {
        control_ok = false;
        ::close(fd);
        return;
      }
      // Let the attackers interleave with us on the shard loops.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::vector<RaceReport> got;
    for (;;) {
      Request drain;
      drain.verb = Verb::kDrain;
      drain.session = id;
      if (!write_frame_split(fd, encode_request(drain), rng) ||
          !read_response(fd, rsp) || rsp.status != ServiceStatus::kOk) {
        control_ok = false;
        ::close(fd);
        return;
      }
      got.insert(got.end(), rsp.drain.reports.begin(),
                 rsp.drain.reports.end());
      if (!rsp.drain.more) break;
    }
    Request close_req;
    close_req.verb = Verb::kClose;
    close_req.session = id;
    if (!write_frame_split(fd, encode_request(close_req), rng) ||
        !read_response(fd, rsp) || rsp.status != ServiceStatus::kOk ||
        !rsp.close.complete || got != expected)
      control_ok = false;
    ::close(fd);
  });

  // Attackers: several threads, many short adversarial connections each.
  std::vector<std::thread> attackers;
  for (int t = 0; t < 3; ++t) {
    attackers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i)
        adversarial_connection(server,
                               0x9e3779b9u * static_cast<std::uint64_t>(t) +
                                   static_cast<std::uint64_t>(i) + 7);
    });
  }
  for (std::thread& t : attackers) t.join();
  control.join();
  EXPECT_TRUE(control_ok.load()) << server.log.str();

  // No leaks: every connection is gone, so the server must have closed all
  // orphaned sessions. Disconnect cleanup is asynchronous — poll briefly.
  bool drained = false;
  for (int i = 0; i < 300 && !drained; ++i) {
    drained = server.pool.live_sessions() == 0;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained) << server.pool.live_sessions()
                       << " session(s) leaked; log: " << server.log.str();

  // The server still answers fresh, honest traffic after the abuse.
  const int fd = server.try_connect();
  ASSERT_GE(fd, 0);
  Xoshiro256 rng(99);
  Request stats;
  stats.verb = Verb::kStats;
  Response rsp;
  ASSERT_TRUE(write_frame_split(fd, encode_request(stats), rng));
  ASSERT_TRUE(read_response(fd, rsp));
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);
  EXPECT_NE(rsp.message.find("\"workers\":4"), std::string::npos)
      << rsp.message;
  ::close(fd);
}

/// The pool-wide bad_frames count, read from its STATS JSON.
std::uint64_t bad_frames(const WorkerPool& pool) {
  const std::string json = pool.metrics_json();
  const std::string key = "\"bad_frames\":";
  return std::stoull(json.substr(json.find(key) + key.size()));
}

// A framing fault reads the same on both transports: one kBadFrame answer
// with the same message, counted once in the pool's bad_frames, whether
// the stream came through serve_pipe or a socket connection.
TEST(ServiceFuzz, BothTransportsAnswerFramingFaultsAlike) {
  const std::string faults[] = {
      std::string("\x05\x00\x00\x01", 4),        // kMaxFrameBytes + 5
      std::string("\xff\x00\x00\x00trunc", 9),  // payload cut short
      std::string("\x05\x00", 2),                // prefix cut short
  };
  ServerFixture server;
  for (const std::string& fault : faults) {
    WorkerPool pool(1);
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    in.write(fault.data(), static_cast<std::streamsize>(fault.size()));
    ASSERT_EQ(serve_pipe(in, out, pool), 1u);
    std::string payload;
    std::string error;
    Response piped;
    ASSERT_TRUE(read_frame(out, payload, error)) << error;
    ASSERT_TRUE(decode_response(payload, piped, error)) << error;
    EXPECT_EQ(piped.status, ServiceStatus::kBadFrame);
    EXPECT_EQ(bad_frames(pool), 1u);

    const std::uint64_t before = bad_frames(server.pool);
    const int fd = server.try_connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, fault.data(), fault.size()));
    ::shutdown(fd, SHUT_WR);  // the stream ends here
    Response socketed;
    ASSERT_TRUE(read_response(fd, socketed));
    ::close(fd);
    EXPECT_EQ(socketed.status, ServiceStatus::kBadFrame);
    EXPECT_EQ(socketed.message, piped.message);
    EXPECT_EQ(bad_frames(server.pool), before + 1);
  }
}

Response must_open(int fd, Xoshiro256& rng) {
  Request open;
  open.verb = Verb::kOpen;
  open.open.engine = DetectorEngine::kDepa;
  Response rsp;
  EXPECT_TRUE(write_frame_split(fd, encode_request(open), rng));
  EXPECT_TRUE(read_response(fd, rsp));
  EXPECT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  return rsp;
}

bool wait_for_live_sessions(const ServerFixture& server, std::size_t want) {
  for (int i = 0; i < 300; ++i) {
    if (server.pool.live_sessions() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// One request on `fd`, answered.
Response round_trip(int fd, const Request& request, Xoshiro256& rng) {
  Response rsp;
  EXPECT_TRUE(write_frame_split(fd, encode_request(request), rng));
  EXPECT_TRUE(read_response(fd, rsp));
  return rsp;
}

TEST(ServiceFuzz, MidSessionDisconnectFreesTheSessionsExactly) {
  ServerFixture server;
  Xoshiro256 rng(5);
  // A session on one connection must survive the death of every other.
  const int fd2 = server.try_connect();
  ASSERT_GE(fd2, 0);
  const std::uint32_t survivor = must_open(fd2, rng).session;
  // A blobless RESTORE naming the survivor answers OK (the session is live
  // and stays where it is) but must not make it the sender's.
  Request by_id;
  by_id.verb = Verb::kRestore;
  by_id.session = survivor;
  Request drain;
  drain.verb = Verb::kDrain;
  drain.session = survivor;

  // Dying connections, three sessions each: one on another shard, then one
  // on the survivor's own shard (connections are dealt to the four shards
  // round-robin, so one of the next four lands there).
  for (const bool same_shard : {false, true}) {
    int fd = -1;
    std::uint32_t shard = 0;
    for (int c = 0; c < 4 && fd < 0; ++c) {
      const int next = server.try_connect();
      ASSERT_GE(next, 0);
      shard = must_open(next, rng).session % 4u;
      if ((shard == survivor % 4u) == same_shard)
        fd = next;
      else
        ::close(next);
    }
    ASSERT_GE(fd, 0) << "no connection landed as wanted";
    for (int i = 0; i < 2; ++i) must_open(fd, rng);
    const Response named = round_trip(fd, by_id, rng);
    ASSERT_EQ(named.status, ServiceStatus::kOk) << named.message;
    ::close(fd);  // abrupt: no CLOSE for its sessions
    EXPECT_TRUE(wait_for_live_sessions(server, 1))
        << server.pool.live_sessions() << " live, dying connection on shard "
        << shard << ", survivor on " << survivor % 4u;
    const Response alive = round_trip(fd2, drain, rng);
    EXPECT_EQ(alive.status, ServiceStatus::kOk)
        << "same shard " << same_shard << ": " << alive.message;
  }

  // The survivor still works end to end.
  const Trace trace = generated(17);
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = survivor;
  feed.bytes = trace_to_binary(trace);
  EXPECT_EQ(round_trip(fd2, feed, rng).status, ServiceStatus::kOk);
  Request close_req;
  close_req.verb = Verb::kClose;
  close_req.session = survivor;
  const Response closed = round_trip(fd2, close_req, rng);
  EXPECT_EQ(closed.status, ServiceStatus::kOk);
  EXPECT_TRUE(closed.close.complete);
  ::close(fd2);
}

// Regression: stopping the server while requests are still in flight must
// drain them before serve_unix_socket returns. Fire a burst of FEEDs without
// reading a single response, then tear the fixture down immediately —
// completion callbacks that outlive the serve loop used to write a destroyed
// stack frame and a closed eventfd (caught here under ASan/TSan).
TEST(ServiceFuzz, StopUnderLoadDrainsInFlightRequests) {
  const std::string wire = trace_to_binary(generated(31));
  for (int round = 0; round < 5; ++round) {
    std::vector<int> fds;
    {
      ServerFixture server;
      for (int c = 0; c < 4; ++c) {
        const int fd = server.try_connect();
        ASSERT_GE(fd, 0);
        fds.push_back(fd);
        Xoshiro256 rng(static_cast<std::uint64_t>(round * 4 + c) + 1);
        Request open;
        open.verb = Verb::kOpen;
        Response rsp;
        ASSERT_TRUE(write_frame_split(fd, encode_request(open), rng));
        ASSERT_TRUE(read_response(fd, rsp));
        ASSERT_EQ(rsp.status, ServiceStatus::kOk);
        // A volley of feeds the workers will still be chewing on when the
        // stop flag lands; nobody ever reads these responses.
        for (int i = 0; i < 16; ++i) {
          Request feed;
          feed.verb = Verb::kFeed;
          feed.session = rsp.session;
          feed.bytes = wire.substr(
              static_cast<std::size_t>(i) * 64 %
                  std::max<std::size_t>(1, wire.size() - 64),
              64);
          const std::string frame = framed(encode_request(feed));
          if (!write_all(fd, frame.data(), frame.size())) break;
        }
      }
      // Teardown races the in-flight work with the connections still open:
      // the fixture destructor sets the stop flag, joins the serve thread
      // (which must drain every in-flight request first), then shuts the
      // pool down. Its rc == 0 check doubles as the clean-drain assertion.
    }
    for (const int fd : fds) ::close(fd);
  }
}

// An OPEN over a socket creates its session on the connection's own shard,
// and connections are dealt to the shards round-robin.
TEST(ServiceFuzz, OpensLandOnTheConnectionsShard) {
  ServerFixture server;
  Xoshiro256 rng(11);
  std::vector<int> fds;
  std::set<std::uint32_t> residues;
  for (int c = 0; c < 4; ++c) {
    const int fd = server.try_connect();
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    std::set<std::uint32_t> mine;
    for (int i = 0; i < 3; ++i) mine.insert(must_open(fd, rng).session % 4u);
    ASSERT_EQ(mine.size(), 1u) << "connection " << c << " spans shards";
    residues.insert(*mine.begin());
  }
  EXPECT_EQ(residues.size(), 4u) << "four connections left a shard idle";
  EXPECT_EQ(server.pool.live_sessions(), 12u);
  for (const int fd : fds) ::close(fd);
  EXPECT_TRUE(wait_for_live_sessions(server, 0))
      << server.pool.live_sessions() << " session(s) leaked";
}

// One connection pipelines requests for its own session and for a session
// another shard owns: the foreign ones travel through the owner's mailbox
// and back, and the responses must still come out in request order. Neither
// benchmark workload reaches this path or the reorder buffer behind it.
TEST(ServiceFuzz, ForwardedRequestsAnswerInRequestOrder) {
  ServerFixture server;
  Xoshiro256 rng(23);
  const int a = server.try_connect();
  ASSERT_GE(a, 0);
  const std::uint32_t x = must_open(a, rng).session;
  const int b = server.try_connect();
  ASSERT_GE(b, 0);
  const std::uint32_t y = must_open(b, rng).session;
  ASSERT_NE(x % 4u, y % 4u) << "both sessions on one shard: nothing forwards";

  const Trace trace_x = generated(61);
  const Trace trace_y = generated(62);
  const std::string wire_x = trace_to_binary(trace_x);
  const std::string wire_y = trace_to_binary(trace_y);
  const std::pair<std::uint32_t, const std::string*> streams[] = {
      {x, &wire_x}, {y, &wire_y}};
  std::vector<Request> script;
  constexpr std::size_t kFrame = 64;
  for (std::size_t off = 0; off < std::max(wire_x.size(), wire_y.size());
       off += kFrame) {
    for (const auto& [id, wire] : streams) {
      if (off >= wire->size()) continue;
      Request feed;
      feed.verb = Verb::kFeed;
      feed.session = id;
      feed.bytes = wire->substr(off, kFrame);
      script.push_back(std::move(feed));
    }
  }
  for (const Verb verb : {Verb::kDrain, Verb::kClose}) {
    for (const std::uint32_t id : {x, y}) {
      Request req;
      req.verb = verb;
      req.session = id;
      script.push_back(req);
    }
  }
  std::string burst;
  for (const Request& req : script) burst += framed(encode_request(req));
  ASSERT_TRUE(write_all(a, burst.data(), burst.size()));

  std::vector<RaceReport> drained_x;
  std::vector<RaceReport> drained_y;
  for (std::size_t i = 0; i < script.size(); ++i) {
    Response rsp;
    ASSERT_TRUE(read_response(a, rsp)) << "response " << i;
    ASSERT_EQ(rsp.verb, script[i].verb) << "response " << i;
    ASSERT_EQ(rsp.session, script[i].session) << "response " << i;
    ASSERT_EQ(rsp.status, ServiceStatus::kOk)
        << "response " << i << ": " << rsp.message;
    if (rsp.verb == Verb::kDrain) {
      EXPECT_FALSE(rsp.drain.more);
      (rsp.session == x ? drained_x : drained_y) = rsp.drain.reports;
    }
    if (rsp.verb == Verb::kClose) {
      EXPECT_TRUE(rsp.close.complete);
    }
  }
  // Both programs race (7 and 909 reports), so an empty drain cannot pass.
  EXPECT_FALSE(drained_x.empty());
  EXPECT_EQ(drained_x, detect_races_trace(trace_x));
  EXPECT_EQ(drained_y, detect_races_trace(trace_y));
  ::close(a);
  ::close(b);
  EXPECT_TRUE(wait_for_live_sessions(server, 0));
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Open fd numbers of this process, listed through `fds`, an open
/// /proc/self/fd: scanning it needs no new fd, so it works at the fd limit.
std::vector<int> open_fds(DIR* fds) {
  std::vector<int> out;
  ::rewinddir(fds);
  while (const dirent* entry = ::readdir(fds))
    if (entry->d_name[0] != '.') out.push_back(std::atoi(entry->d_name));
  return out;
}

/// Server-side ends of `server`'s connections open in this process: an
/// accepted unix socket carries the listener's path as its own name.
std::size_t server_side_connections(const ServerFixture& server, DIR* fds) {
  std::size_t open = 0;
  for (const int fd : open_fds(fds)) {
    sockaddr_un name{};
    socklen_t name_len = sizeof(name);
    int listening = 0;
    socklen_t flag_len = sizeof(listening);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&name), &name_len) == 0 &&
        name.sun_family == AF_UNIX && server.path == name.sun_path &&
        ::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &flag_len) == 0 &&
        listening == 0)
      ++open;
  }
  return open;
}

// Out of fds, accept() fails while connections wait in the backlog, which
// keeps the listener readable: the acceptor must pause instead of spinning
// on it, and resume once fds free up.
TEST(ServiceFuzz, FdExhaustionPausesAcceptingAndRecovers) {
  ServerFixture server;
  const std::unique_ptr<DIR, int (*)(DIR*)> fds(::opendir("/proc/self/fd"),
                                                ::closedir);
  ASSERT_NE(fds, nullptr);
  // Settle the fixture's probe connection first, so that no fd frees up
  // behind the test's back. A round trip on a later connection shows the
  // probe was accepted (the backlog is served in order); then both must be
  // closed on the server side as well.
  {
    const int fd = server.try_connect();
    ASSERT_GE(fd, 0);
    Request stats;
    stats.verb = Verb::kStats;
    const std::string frame = framed(encode_request(stats));
    Response rsp;
    ASSERT_TRUE(write_all(fd, frame.data(), frame.size()));
    ASSERT_TRUE(read_response(fd, rsp));
    ::close(fd);
  }
  for (int i = 0; i < 200 && server_side_connections(server, fds.get()) > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(server_side_connections(server, fds.get()), 0u);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  struct Fds {
    std::vector<int> fds;
    ~Fds() {
      for (const int fd : fds) ::close(fd);
    }
  } clients;
  const std::vector<int> in_use = open_fds(fds.get());
  rlimit low = saved;
  low.rlim_cur =
      static_cast<rlim_t>(*std::max_element(in_use.begin(), in_use.end()) + 1 + 16);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  const int spare = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(spare, 0);
  for (;;) {
    const int fd = server.try_connect();
    if (fd < 0) break;  // socket() hit the limit
    clients.fds.push_back(fd);
  }
  ASSERT_FALSE(clients.fds.empty());
  // The fd table is full, so every client not accepted yet waits in the
  // backlog with no fd left to accept it. If the acceptor kept up with them
  // all, give the spare back and connect one more: with nothing pending,
  // the acceptor cannot take the freed slot before this client does.
  if (server_side_connections(server, fds.get()) == clients.fds.size()) {
    ::close(spare);
    const int fd = server.try_connect();
    ASSERT_GE(fd, 0);
    clients.fds.push_back(fd);
  } else {
    ::close(spare);
  }

  const double cpu0 = process_cpu_s();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu = process_cpu_s() - cpu0;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  EXPECT_LT(cpu, wall / 3) << "the acceptor spins on the readable listener";

  const std::size_t half = clients.fds.size() / 2;
  for (std::size_t i = 0; i < half; ++i) ::close(clients.fds[i]);
  clients.fds.erase(clients.fds.begin(),
                    clients.fds.begin() + static_cast<std::ptrdiff_t>(half));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  const int fd = server.try_connect();
  ASSERT_GE(fd, 0);
  clients.fds.push_back(fd);
  Request open;
  open.verb = Verb::kOpen;
  const std::string frame = framed(encode_request(open));
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(write_all(fd, frame.data(), frame.size()));
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 1000), 1) << "OPEN unanswered after 1 s";
  Response rsp;
  ASSERT_TRUE(read_response(fd, rsp));
  EXPECT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(1));
}

}  // namespace
}  // namespace race2d
