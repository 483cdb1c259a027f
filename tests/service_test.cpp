// DetectionService: protocol codecs, multi-session multiplexing, quota
// eviction, backpressure, spill failures, determinism of the report streams
// under arbitrary session interleavings, and the pipe transport over a
// worker pool, with its malformed-frame recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_format.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "runtime/trace_io.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/worker_pool.hpp"
#include "support/assert.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

Trace racy_trace() {
  // 0 forks 1; 1 writes L and halts; 0 reads L BEFORE joining 1 — the read
  // is concurrent with the child's write. One write/read race on L.
  return parse_trace_text(
      "fork 0 1\n"
      "write 1 10\n"
      "halt 1\n"
      "read 0 10\n"
      "join 0 1\n"
      "halt 0\n");
}

Trace generated(std::uint64_t seed) {
  return generate_trace(FuzzPlan::from_seed(seed)).trace;
}

/// Opens a session; returns its id.
std::uint32_t open_session(DetectionService& service,
                           ReportPolicy policy = ReportPolicy::kAll) {
  Request req;
  req.verb = Verb::kOpen;
  req.open.policy = policy;
  const Response rsp = service.handle(req);
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);
  return rsp.session;
}

Response feed_bytes(DetectionService& service, std::uint32_t session,
                    const std::string& bytes) {
  Request req;
  req.verb = Verb::kFeed;
  req.session = session;
  req.bytes = bytes;
  return service.handle(req);
}

std::vector<RaceReport> drain_session(DetectionService& service,
                                      std::uint32_t session,
                                      std::uint32_t max_per_call = 0) {
  std::vector<RaceReport> out;
  for (;;) {
    Request req;
    req.verb = Verb::kDrain;
    req.session = session;
    req.max_reports = max_per_call;
    const Response rsp = service.handle(req);
    EXPECT_EQ(rsp.status, ServiceStatus::kOk);
    out.insert(out.end(), rsp.drain.reports.begin(), rsp.drain.reports.end());
    if (!rsp.drain.more) return out;
  }
}

Response close_session(DetectionService& service, std::uint32_t session) {
  Request req;
  req.verb = Verb::kClose;
  req.session = session;
  return service.handle(req);
}

TEST(Protocol, RequestCodecsRoundTrip) {
  std::string error;
  for (const Verb verb :
       {Verb::kOpen, Verb::kFeed, Verb::kDrain, Verb::kClose, Verb::kStats}) {
    Request req;
    req.verb = verb;
    req.session = 0xdeadbeef;
    req.open.policy = ReportPolicy::kFirstOnly;
    req.open.quota_bytes = 123456789;
    req.bytes = std::string("\x00\x01\xff binary", 10);
    req.max_reports = 77;
    Request back;
    ASSERT_TRUE(decode_request(encode_request(req), back, error)) << error;
    EXPECT_EQ(back.verb, req.verb);
    EXPECT_EQ(back.session, req.session);
    if (verb == Verb::kOpen) {
      EXPECT_EQ(back.open.policy, req.open.policy);
      EXPECT_EQ(back.open.quota_bytes, req.open.quota_bytes);
    }
    if (verb == Verb::kFeed) {
      EXPECT_EQ(back.bytes, req.bytes);
    }
    if (verb == Verb::kDrain) {
      EXPECT_EQ(back.max_reports, req.max_reports);
    }
  }
}

TEST(Protocol, ResponseCodecsRoundTrip) {
  std::string error;
  Response rsp;
  rsp.verb = Verb::kDrain;
  rsp.session = 3;
  rsp.drain.more = true;
  rsp.drain.reports.push_back(
      {0xabcdef, 7, AccessKind::kWrite, AccessKind::kRead, 42});
  rsp.drain.reports.push_back(
      {0x10, 2, AccessKind::kRetire, AccessKind::kWrite, 99});
  Response back;
  ASSERT_TRUE(decode_response(encode_response(rsp), back, error)) << error;
  EXPECT_EQ(back.drain.reports, rsp.drain.reports);
  EXPECT_TRUE(back.drain.more);

  Response err;
  err.verb = Verb::kFeed;
  err.status = ServiceStatus::kLintReject;
  err.session = 9;
  err.message = "L006 out-of-serial-order at event 3: ...";
  ASSERT_TRUE(decode_response(encode_response(err), back, error)) << error;
  EXPECT_EQ(back.status, ServiceStatus::kLintReject);
  EXPECT_EQ(back.message, err.message);
}

/// The bytes a golden hex string spells; spaces only separate fields.
std::string hex(const char* digits) {
  std::string out;
  int high = -1;
  for (const char* c = digits; *c != '\0'; ++c) {
    if (*c == ' ') continue;
    const int nibble = *c <= '9' ? *c - '0' : *c - 'a' + 10;
    if (high < 0) {
      high = nibble;
    } else {
      out.push_back(static_cast<char>(high << 4 | nibble));
      high = -1;
    }
  }
  return out;
}

Request request_of(Verb verb) {
  Request r;
  r.verb = verb;
  r.session = 0x04030201;
  return r;
}

Response ok_response_of(Verb verb) {
  Response r;
  r.verb = verb;
  r.session = 0x04030201;
  return r;
}

// Every payload shape, byte for byte. Requests: the verb, the session
// (u32le), then the body. Responses: the verb, the status, the session,
// then the body. A DRAIN body is `more`, the count, and a 22-byte record
// per report (loc u64, task u32, kind u8, prior kind u8, ordinal u64). Each
// golden must be what the encoder writes, and must decode to a value that
// re-encodes to it.
TEST(Protocol, PayloadBytesAreFixed) {
  struct RequestRow {
    Request request;
    const char* golden;
  };
  std::vector<RequestRow> requests;
  Request open = request_of(Verb::kOpen);
  open.open.policy = ReportPolicy::kFirstOnly;
  open.open.quota_bytes = 0x1122334455667788;
  open.open.engine = DetectorEngine::kDepa;
  requests.push_back({open, "01 01020304 01 8877665544332211 01"});
  Request feed = request_of(Verb::kFeed);
  feed.bytes = std::string("R2DT\x00\xff", 6);
  requests.push_back({feed, "02 01020304 52324454 00ff"});
  Request drain = request_of(Verb::kDrain);
  drain.max_reports = 0x0a0b0c0d;
  requests.push_back({drain, "03 01020304 0d0c0b0a"});
  requests.push_back({request_of(Verb::kClose), "04 01020304"});
  requests.push_back({request_of(Verb::kStats), "05 01020304"});
  requests.push_back({request_of(Verb::kSnapshot), "06 01020304"});
  Request restore = request_of(Verb::kRestore);
  restore.bytes = "blob";
  requests.push_back({restore, "07 01020304 626c6f62"});
  std::string error;
  for (const RequestRow& row : requests) {
    const std::string golden = hex(row.golden);
    EXPECT_EQ(encode_request(row.request), golden) << row.golden;
    Request back;
    ASSERT_TRUE(decode_request(golden, back, error)) << row.golden << error;
    EXPECT_EQ(encode_request(back), golden) << row.golden;
  }
  // An OPEN without its trailing engine byte names the DSU; it re-encodes
  // with the byte.
  Request legacy;
  ASSERT_TRUE(
      decode_request(hex("01 01020304 00 0000100000000000"), legacy, error))
      << error;
  EXPECT_EQ(legacy.open.engine, DetectorEngine::kDsu);
  EXPECT_EQ(legacy.open.quota_bytes, 1u << 20);
  EXPECT_EQ(encode_request(legacy), hex("01 01020304 00 0000100000000000 00"));

  struct ResponseRow {
    Response response;
    const char* golden;
  };
  std::vector<ResponseRow> responses;
  responses.push_back({ok_response_of(Verb::kOpen), "01 00 01020304"});
  Response fed = ok_response_of(Verb::kFeed);
  fed.feed.events = 0x0102030405060708;
  fed.feed.pending_reports = 9;
  fed.feed.backpressure = true;
  responses.push_back(
      {fed, "02 00 01020304 0807060504030201 09000000 01"});
  Response drained = ok_response_of(Verb::kDrain);
  drained.session = 3;
  drained.drain.more = true;
  drained.drain.reports.push_back(
      {0xabcdef, 7, AccessKind::kWrite, AccessKind::kRead, 42});
  drained.drain.reports.push_back(
      {0x10, 2, AccessKind::kRetire, AccessKind::kWrite, 99});
  responses.push_back({drained,
                       "03 00 03000000 01 02000000"
                       " efcdab0000000000 07000000 01 00 2a00000000000000"
                       " 1000000000000000 02000000 02 01 6300000000000000"});
  Response closed = ok_response_of(Verb::kClose);
  closed.close.complete = true;
  closed.close.events = 5;
  closed.close.reports = 1;
  responses.push_back(
      {closed, "04 00 01020304 01 0500000000000000 0100000000000000"});
  Response stats = ok_response_of(Verb::kStats);
  stats.message = "{}";
  responses.push_back({stats, "05 00 01020304 7b7d"});
  Response snapshot = ok_response_of(Verb::kSnapshot);
  snapshot.blob = "blob";
  responses.push_back({snapshot, "06 00 01020304 626c6f62"});
  responses.push_back({ok_response_of(Verb::kRestore), "07 00 01020304"});
  responses.push_back({error_response(Verb::kFeed, 0x04030201,
                                      ServiceStatus::kLintReject, "L006"),
                       "02 07 01020304 4c303036"});
  for (const ResponseRow& row : responses) {
    const std::string golden = hex(row.golden);
    EXPECT_EQ(encode_response(row.response), golden) << row.golden;
    Response back;
    ASSERT_TRUE(decode_response(golden, back, error)) << row.golden << error;
    EXPECT_EQ(encode_response(back), golden) << row.golden;
  }
}

TEST(Protocol, MalformedPayloadsAreRejectedNotCrashes) {
  Request req;
  std::string error;
  EXPECT_FALSE(decode_request("", req, error));
  EXPECT_FALSE(decode_request("\x08xxxx", req, error));       // unknown verb
  EXPECT_FALSE(decode_request(std::string(3, '\0'), req, error));
  // drain with a short body
  EXPECT_FALSE(decode_request(std::string("\x03\0\0\0\0\x01", 6), req, error));
  // open with trailing bytes
  std::string open = encode_request([] {
    Request r;
    r.verb = Verb::kOpen;
    return r;
  }());
  EXPECT_FALSE(decode_request(open + "x", req, error));
  // open naming an engine above 1 (the byte is ignored, but still checked)
  open.back() = '\x02';
  EXPECT_FALSE(decode_request(open, req, error));
}

TEST(Service, SingleSessionMatchesOfflineDetector) {
  const Trace trace = racy_trace();
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const Response feed = feed_bytes(service, id, trace_to_binary(trace));
  ASSERT_EQ(feed.status, ServiceStatus::kOk);
  EXPECT_EQ(feed.feed.events, trace.size());
  const std::vector<RaceReport> reports = drain_session(service, id);
  EXPECT_EQ(reports, detect_races_trace(trace));
  const Response close = close_session(service, id);
  ASSERT_EQ(close.status, ServiceStatus::kOk);
  EXPECT_TRUE(close.close.complete);
  EXPECT_EQ(close.close.events, trace.size());
  EXPECT_EQ(close.close.reports, reports.size());
  EXPECT_EQ(service.live_sessions(), 0u);
}

TEST(Service, InterleavedSessionsAreIsolatedAndDeterministic) {
  // Three traces, each streamed in small frames. Run once sequentially and
  // once with the frames interleaved round-robin: per-session report
  // streams must be identical — sessions share nothing but the service.
  const std::vector<Trace> traces = {racy_trace(), generated(31),
                                     generated(77)};
  std::vector<std::string> wires;
  for (const Trace& t : traces) wires.push_back(trace_to_binary(t));

  const auto run = [&](bool interleave) {
    DetectionService service;
    std::vector<std::uint32_t> ids;
    for (std::size_t s = 0; s < wires.size(); ++s)
      ids.push_back(open_session(service));
    constexpr std::size_t kFrame = 64;
    std::vector<std::size_t> offset(wires.size(), 0);
    if (interleave) {
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t s = 0; s < wires.size(); ++s) {
          if (offset[s] >= wires[s].size()) continue;
          const std::size_t n = std::min(kFrame, wires[s].size() - offset[s]);
          const Response r =
              feed_bytes(service, ids[s], wires[s].substr(offset[s], n));
          EXPECT_EQ(r.status, ServiceStatus::kOk);
          offset[s] += n;
          progress = true;
        }
      }
    } else {
      for (std::size_t s = 0; s < wires.size(); ++s) {
        for (std::size_t off = 0; off < wires[s].size(); off += kFrame) {
          const Response r = feed_bytes(
              service, ids[s],
              wires[s].substr(off, std::min(kFrame, wires[s].size() - off)));
          EXPECT_EQ(r.status, ServiceStatus::kOk);
        }
      }
    }
    std::vector<std::vector<RaceReport>> per_session;
    for (std::size_t s = 0; s < wires.size(); ++s) {
      per_session.push_back(drain_session(service, ids[s], 3));
      EXPECT_EQ(close_session(service, ids[s]).status, ServiceStatus::kOk);
    }
    return per_session;
  };

  const auto sequential = run(false);
  const auto interleaved = run(true);
  ASSERT_EQ(sequential.size(), interleaved.size());
  for (std::size_t s = 0; s < sequential.size(); ++s) {
    EXPECT_EQ(sequential[s], interleaved[s]) << "session " << s;
    EXPECT_EQ(sequential[s], detect_races_trace(traces[s])) << "session " << s;
  }
}

TEST(Service, LintRejectPoisonsTheSession) {
  // Event by an unknown task: decodes fine, fails the lint gate.
  const Trace bad{{TraceOp::kRead, 5, kInvalidTask, 0x10}};
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const Response feed = feed_bytes(service, id, trace_to_binary(bad));
  EXPECT_EQ(feed.status, ServiceStatus::kLintReject);
  EXPECT_NE(feed.message.find("L001"), std::string::npos) << feed.message;
  // Sticky: the next operation reports the same rejection.
  const Response again = feed_bytes(service, id, "x");
  EXPECT_EQ(again.status, ServiceStatus::kLintReject);
  const Response close = close_session(service, id);
  EXPECT_EQ(close.status, ServiceStatus::kLintReject);
  EXPECT_EQ(service.live_sessions(), 0u);  // close frees it regardless
}

TEST(Service, DecodeRejectCarriesTheStableCode) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const Response feed = feed_bytes(service, id, "this is not R2DT data");
  EXPECT_EQ(feed.status, ServiceStatus::kDecodeReject);
  EXPECT_NE(feed.message.find("B001"), std::string::npos) << feed.message;
}

TEST(Service, CloseDetectsTruncatedStreams) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(racy_trace());
  const Response feed =
      feed_bytes(service, id, wire.substr(0, wire.size() - 4));
  ASSERT_EQ(feed.status, ServiceStatus::kOk);  // prefix is frame-aligned? no:
  // whatever decoded so far is fine; the MISSING trailer surfaces at close.
  const Response close = close_session(service, id);
  EXPECT_EQ(close.status, ServiceStatus::kDecodeReject);
  EXPECT_NE(close.message.find("B00"), std::string::npos) << close.message;
}

TEST(Service, UnknownSessionAndUnknownVerb) {
  DetectionService service;
  const Response r = feed_bytes(service, 42, "x");
  EXPECT_EQ(r.status, ServiceStatus::kUnknownSession);
  Request req;
  req.verb = static_cast<Verb>(99);
  EXPECT_EQ(service.handle(req).status, ServiceStatus::kUnknownVerb);
}

// A pending-report cap of 0 would answer every FEED kBackpressure with
// nothing to drain, so neither a service nor a pool of them accepts it.
TEST(Service, MaxPendingOfZeroIsAContractViolation) {
  ServiceLimits limits;
  limits.max_pending_reports = 0;
  EXPECT_THROW({ DetectionService service(limits); }, ContractViolation);
  EXPECT_THROW({ WorkerPool pool(2, limits); }, ContractViolation);
}

TEST(Service, QuotaEvictionIsGracefulAndRemembered) {
  ServiceLimits limits;
  limits.session_quota_bytes = 2048;  // tiny: any real trace overflows it
  DetectionService service(limits);
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(generated(123));
  Response last;
  last.status = ServiceStatus::kOk;
  for (std::size_t off = 0; off < wire.size() && last.status == ServiceStatus::kOk;
       off += 256)
    last = feed_bytes(service, id, wire.substr(off, 256));
  EXPECT_EQ(last.status, ServiceStatus::kQuotaEvicted);
  EXPECT_NE(last.message.find("quota"), std::string::npos) << last.message;
  EXPECT_EQ(service.live_sessions(), 0u);
  // The tombstone keeps answering with the eviction, not unknown-session.
  EXPECT_EQ(feed_bytes(service, id, "x").status, ServiceStatus::kQuotaEvicted);
  EXPECT_EQ(close_session(service, id).status, ServiceStatus::kQuotaEvicted);
  // Acknowledged by the close: now it is gone entirely.
  EXPECT_EQ(feed_bytes(service, id, "x").status,
            ServiceStatus::kUnknownSession);
  // The service itself is unharmed: new sessions work.
  const std::uint32_t fresh = open_session(service);
  EXPECT_EQ(feed_bytes(service, fresh, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
}

TEST(Service, BackpressureRefusesWithoutConsuming) {
  ServiceLimits limits;
  limits.max_pending_reports = 1;
  DetectionService service(limits);
  const std::uint32_t id = open_session(service);
  // racy_trace yields one report; with the cap at 1 the next feed bounces.
  ASSERT_EQ(feed_bytes(service, id, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  const std::string more = trace_to_binary(racy_trace());
  const Response bounced = feed_bytes(service, id, more);
  EXPECT_EQ(bounced.status, ServiceStatus::kBackpressure);
  // Drain, then the SAME frame is accepted — nothing was consumed.
  bool more_pending = false;
  (void)drain_session(service, id);
  const Response retried = feed_bytes(service, id, more);
  EXPECT_EQ(retried.status, ServiceStatus::kDecodeReject)
      << "a second full stream is trailing bytes after the first trailer";
  (void)more_pending;
}

// A partial drain hands over the head of the backlog without moving the
// rest of it, so draining 2^16 reports one at a time costs O(backlog).
// Erasing the drained prefix on every call made it quadratic: over a
// second here, against a few milliseconds.
TEST(Service, DrainingABacklogOneReportAtATimeIsLinear) {
  constexpr Loc kReports = Loc{1} << 16;
  Trace trace = {{TraceOp::kFork, 0, 1, 0}};
  for (Loc loc = 0; loc < kReports; ++loc)
    trace.push_back({TraceOp::kWrite, 1, kInvalidTask, loc});
  trace.push_back({TraceOp::kHalt, 1, kInvalidTask, 0});
  for (Loc loc = 0; loc < kReports; ++loc)
    trace.push_back({TraceOp::kRead, 0, kInvalidTask, loc});  // each races
  trace.push_back({TraceOp::kJoin, 0, 1, 0});
  trace.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  DetectionSession session(ReportPolicy::kAll, 2 * kReports);
  ASSERT_EQ(session.feed(trace_to_binary(trace)).status, ServiceStatus::kOk);
  ASSERT_EQ(session.pending_reports(), kReports);

  std::vector<RaceReport> drained;
  bool more = true;
  const auto start = std::chrono::steady_clock::now();
  while (more) {
    const std::vector<RaceReport> one = session.drain(1, more);
    ASSERT_EQ(one.size(), 1u);
    drained.push_back(one.front());
    ASSERT_EQ(session.pending_reports(), kReports - drained.size());
  }
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(drained, detect_races_trace(trace));
  EXPECT_LT(took, std::chrono::milliseconds(250))
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms to drain " << kReports << " reports one at a time";
}

TEST(Service, MetricsJsonTracksTraffic) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(racy_trace());
  feed_bytes(service, id, wire);
  drain_session(service, id);
  close_session(service, id);
  (void)feed_bytes(service, 999, "x");
  const std::string json = service.metrics_json();
  EXPECT_NE(json.find("\"events\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes_in\":" + std::to_string(wire.size())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reports_out\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sessions_opened\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sessions_closed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"live_sessions\":0"), std::string::npos) << json;
  // The STATS verb answers the same counters; frames are the pool's.
  Request stats;
  stats.verb = Verb::kStats;
  const Response answered = service.handle(stats);
  EXPECT_EQ(answered.status, ServiceStatus::kOk);
  EXPECT_NE(answered.message.find("\"sessions_opened\":1"), std::string::npos)
      << answered.message;
  EXPECT_EQ(answered.message.find("frames"), std::string::npos)
      << answered.message;
}

// ---- spill failures --------------------------------------------------------
//
// evict_heaviest is the pool's budget command; calling it on one service
// spills a chosen session with no threads involved, so both failure paths
// of the cold tier run deterministically.

/// A fresh cold-tier directory, removed with the object.
struct SpillDir {
  std::filesystem::path path;
  explicit SpillDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("race2d-" + name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~SpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

ServiceLimits spill_limits(const SpillDir& dir) {
  ServiceLimits limits;
  limits.spill_dir = dir.path.string();
  return limits;
}

// A spill file damaged on disk: the FEED that would rehydrate it answers
// the K-coded rejection, the session stays tombstoned with that reason
// until CLOSE, and the file is consumed.
TEST(Service, CorruptSpillFileTombstonesTheSession) {
  const SpillDir dir("corrupt-spill");
  DetectionService service(spill_limits(dir));
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(generated(31));
  const std::size_t half = wire.size() / 2;
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, half)).status,
            ServiceStatus::kOk);
  ASSERT_GT(service.evict_heaviest(), 0u);
  ASSERT_EQ(service.spilled_sessions(), 1u);

  const std::filesystem::path file =
      dir.path / ("sess-" + std::to_string(id) + ".spill");
  std::string bytes;
  {
    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is) << file;
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // payload damage
  std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;

  const Response fed = feed_bytes(service, id, wire.substr(half));
  EXPECT_EQ(fed.status, ServiceStatus::kSnapshotReject);
  EXPECT_EQ(fed.message.rfind("K010", 0), 0u) << fed.message;
  Request drain;
  drain.verb = Verb::kDrain;
  drain.session = id;
  const Response drained = service.handle(drain);
  EXPECT_EQ(drained.status, ServiceStatus::kQuotaEvicted);
  EXPECT_EQ(drained.message, fed.message);
  EXPECT_EQ(close_session(service, id).status, ServiceStatus::kQuotaEvicted);
  EXPECT_EQ(feed_bytes(service, id, "x").status,
            ServiceStatus::kUnknownSession);
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_EQ(service.spilled_sessions(), 0u);
}

// A cold tier with room for one spill file: spilling a second session
// drops the first, whose client then learns it is gone for good, while the
// second rehydrates and finishes bit-identical to the offline detector.
TEST(Service, SpillBudgetDropTombstonesTheOlderSpill) {
  const Trace trace = generated(31);
  const std::string wire = trace_to_binary(trace);
  const std::size_t half = wire.size() / 2;
  std::size_t file_bytes = 0;  // one spill of this half-fed session
  {
    const SpillDir probe_dir("spill-probe");
    DetectionService probe(spill_limits(probe_dir));
    const std::uint32_t id = open_session(probe);
    ASSERT_EQ(feed_bytes(probe, id, wire.substr(0, half)).status,
              ServiceStatus::kOk);
    ASSERT_GT(probe.evict_heaviest(), 0u);
    file_bytes = probe.spill_bytes();
    ASSERT_GT(file_bytes, 0u);
  }

  const SpillDir dir("spill-drop");
  ServiceLimits limits = spill_limits(dir);
  limits.spill_budget_bytes = file_bytes * 3 / 2;
  DetectionService service(limits);
  const std::uint32_t a = open_session(service);
  ASSERT_EQ(feed_bytes(service, a, wire.substr(0, half)).status,
            ServiceStatus::kOk);
  ASSERT_GT(service.evict_heaviest(), 0u);  // spills a
  const std::uint32_t b = open_session(service);
  ASSERT_EQ(feed_bytes(service, b, wire.substr(0, half)).status,
            ServiceStatus::kOk);
  ASSERT_GT(service.evict_heaviest(), 0u);  // spills b, which drops a
  EXPECT_EQ(service.spilled_sessions(), 1u);

  const Response fed_a = feed_bytes(service, a, wire.substr(half));
  EXPECT_EQ(fed_a.status, ServiceStatus::kQuotaEvicted);
  EXPECT_NE(fed_a.message.find("spilled snapshot dropped"), std::string::npos)
      << fed_a.message;
  const Response fed_b = feed_bytes(service, b, wire.substr(half));
  EXPECT_EQ(fed_b.status, ServiceStatus::kOk) << fed_b.message;
  EXPECT_EQ(drain_session(service, b), detect_races_trace(trace));
  const std::string json = service.metrics_json();
  EXPECT_NE(json.find("\"spill_drops\":1"), std::string::npos) << json;
}

// ---- split invariance ------------------------------------------------------
//
// The protocol lets a client split its stream into FEEDs anywhere. Every
// event is checked where it lies in the stream, so a session's answers must
// not depend on the split: the last FEED's status and message, every
// report drained, and CLOSE's outcome and totals.

struct SessionView {
  ServiceStatus feed_status = ServiceStatus::kOk;
  std::string feed_message;
  std::vector<RaceReport> reports;
  ServiceStatus close_status = ServiceStatus::kOk;
  std::string close_message;
  std::uint64_t close_events = 0;
  std::uint64_t close_reports = 0;
};

/// Feeds `wire` cut at `cuts` (ascending offsets) into one session,
/// draining after every FEED, then closes it.
SessionView feed_split(const std::string& wire,
                       const std::vector<std::size_t>& cuts) {
  DetectionSession session(ReportPolicy::kAll, 1u << 20);
  SessionView view;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : wire.size();
    const DetectionSession::FeedOutcome fed =
        session.feed(wire.substr(from, to - from));
    from = to;
    view.feed_status = fed.status;
    view.feed_message = fed.message;
    bool more = false;
    const std::vector<RaceReport> drained = session.drain(0, more);
    view.reports.insert(view.reports.end(), drained.begin(), drained.end());
  }
  const DetectionSession::CloseOutcome closed = session.close();
  view.close_status = closed.status;
  view.close_message = closed.message;
  view.close_events = closed.events;
  view.close_reports = closed.reports;
  return view;
}

std::uint32_t read_u32le_at(const std::string& s, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 4; i-- > 0;)
    v = v << 8 | static_cast<unsigned char>(s[at + i]);
  return v;
}

/// Offsets of the frames after the header, as far as their lengths parse.
std::vector<std::size_t> frame_starts(const std::string& wire) {
  std::vector<std::size_t> starts;
  std::size_t at = kBinaryHeaderBytes;
  while (at < wire.size()) {
    starts.push_back(at);
    if (static_cast<unsigned char>(wire[at]) == kTrailerMarker) {
      at += 13;
    } else if (at + 9 <= wire.size()) {
      at += 9 + static_cast<std::size_t>(read_u32le_at(wire, at + 1));
    } else {
      break;
    }
  }
  return starts;
}

std::vector<std::size_t> every(std::size_t step, std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = step; at < size; at += step) cuts.push_back(at);
  return cuts;
}

/// Feeds `wire` whole, one frame per FEED, in 7-byte FEEDs and a byte at a
/// time, and requires the same answers every way. Returns the whole-feed
/// view.
SessionView expect_split_invariant(const std::string& wire,
                                   const std::string& name) {
  SCOPED_TRACE(name);
  const SessionView whole = feed_split(wire, {});
  const std::pair<const char*, std::vector<std::size_t>> splits[] = {
      {"one frame per FEED", frame_starts(wire)},
      {"7-byte FEEDs", every(7, wire.size())},
      {"byte at a time", every(1, wire.size())},
  };
  for (const auto& [how, cuts] : splits) {
    SCOPED_TRACE(how);
    const SessionView split = feed_split(wire, cuts);
    EXPECT_EQ(split.feed_status, whole.feed_status);
    EXPECT_EQ(split.feed_message, whole.feed_message);
    EXPECT_EQ(split.reports, whole.reports);
    EXPECT_EQ(split.close_status, whole.close_status);
    EXPECT_EQ(split.close_message, whole.close_message);
    EXPECT_EQ(split.close_events, whole.close_events);
    EXPECT_EQ(split.close_reports, whole.close_reports);
  }
  return whole;
}

std::string encode(const Trace& trace, std::size_t chunk_bytes,
                   CompressionMode mode = CompressionMode::kNone) {
  BinaryWriteOptions options;
  options.chunk_payload_bytes = chunk_bytes;
  options.compression = mode;
  return trace_to_binary(trace, options);
}

/// Flips one payload byte of the frame at `at`; with `reseal` the frame's
/// CRC is recomputed, so the damage reaches the event decoder and the lint
/// gate instead of the CRC check.
std::string damage_frame(std::string wire, std::size_t at, std::size_t nth,
                         bool reseal) {
  const std::size_t len = read_u32le_at(wire, at + 1);
  wire[at + 9 + nth % len] ^= 0x5a;
  if (reseal) {
    const std::uint32_t crc = crc32c(wire.data() + at + 9, len);
    for (int i = 0; i < 4; ++i)
      wire[at + 5 + static_cast<std::size_t>(i)] =
          static_cast<char>(crc >> (8 * i));
  }
  return wire;
}

/// The frame start of the last chunk of a well-formed stream that has one.
std::size_t last_chunk(const std::string& wire) {
  const std::vector<std::size_t> starts = frame_starts(wire);
  EXPECT_GE(starts.size(), 2u) << "no chunk before the trailer";
  return starts.size() >= 2 ? starts[starts.size() - 2] : 0;
}

// A lint fault in an early chunk and a corrupt last chunk: the first fault
// in stream order is the lint fault, whichever FEED carries the corrupt
// chunk, and the reports found before it are drained every way.
TEST(SplitInvariance, EarlyLintFaultBeatsALaterCorruptChunk) {
  Trace trace = {{TraceOp::kFork, 0, 1, 0}};
  for (Loc loc = 0; loc < 20; ++loc)
    trace.push_back({TraceOp::kWrite, 1, kInvalidTask, 16 * loc});
  trace.push_back({TraceOp::kHalt, 1, kInvalidTask, 0});
  for (Loc loc = 0; loc < 5; ++loc)  // each races with task 1's write
    trace.push_back({TraceOp::kRead, 0, kInvalidTask, 16 * loc});
  trace.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x999});  // L002
  for (Loc loc = 0; loc < 60; ++loc)
    trace.push_back({TraceOp::kRead, 0, kInvalidTask, 16 * loc});
  trace.push_back({TraceOp::kJoin, 0, 1, 0});
  trace.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  const std::string clean = encode(trace, 64);
  ASSERT_GE(frame_starts(clean).size(), 4u);
  const std::string wire =
      damage_frame(clean, last_chunk(clean), 3, /*reseal=*/false);

  const SessionView view = expect_split_invariant(wire, "L002 then B005");
  EXPECT_EQ(view.feed_status, ServiceStatus::kLintReject);
  EXPECT_EQ(view.feed_message.rfind("L002", 0), 0u) << view.feed_message;
  EXPECT_EQ(view.close_events, 27u);  // every event before the halted write
  EXPECT_EQ(view.reports.size(), 5u);
  EXPECT_EQ(view.close_reports, 5u);
}

TEST(SplitInvariance, CorpusStreamsAndTheirMutants) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(RACE2D_CORPUS_DIR))
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u) << "corpus shrank below its floor";

  Xoshiro256 rng(20261017);
  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    std::ifstream text(path);
    const Trace trace = parse_trace_text(text);
    fs::path twin = path;
    twin.replace_extension(".btrace");
    std::ifstream binary(twin, std::ios::binary);
    std::ostringstream twin_bytes;
    twin_bytes << binary.rdbuf();

    const SessionView clean = expect_split_invariant(twin_bytes.str(), name);
    EXPECT_EQ(clean.close_status, ServiceStatus::kOk) << name;
    EXPECT_EQ(clean.reports, detect_races_trace(trace)) << name;
    const std::string v1 = encode(trace, 16);
    expect_split_invariant(v1, name + " v1/16");
    expect_split_invariant(encode(trace, 16, CompressionMode::kRuns),
                           name + " v2/16");
    expect_split_invariant(v1.substr(0, v1.size() - 3), name + " truncated");
    expect_split_invariant(v1 + "x", name + " trailing byte");
    const std::vector<std::size_t> frames = frame_starts(v1);
    for (int k = 0; k < 4; ++k) {
      // A damaged chunk other than the last, resealed or not.
      const std::size_t at = frames[rng.below(frames.size() - 1)];
      expect_split_invariant(damage_frame(v1, at, rng(), k % 2 == 0),
                             name + " damaged chunk " + std::to_string(k));
    }
  }
}

TEST(SplitInvariance, StructureBreakingMutantsWithACorruptTail) {
  Xoshiro256 rng(7);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace base = generate_trace(FuzzPlan::from_seed(seed)).trace;
    for (const MutationKind kind :
         {MutationKind::kDropJoin, MutationKind::kDuplicateJoin,
          MutationKind::kDropHalt, MutationKind::kDropFork,
          MutationKind::kRetargetJoin}) {
      const Mutation m = mutate_trace(base, kind, rng);
      if (!m.applied || m.trace.empty()) continue;
      const std::string name =
          "seed " + std::to_string(seed) + " " + to_string(kind);
      for (const CompressionMode mode :
           {CompressionMode::kNone, CompressionMode::kRuns}) {
        const std::string wire = encode(m.trace, 48, mode);
        expect_split_invariant(wire, name);
        expect_split_invariant(
            damage_frame(wire, last_chunk(wire), rng(), false),
            name + " + corrupt last chunk");
      }
    }
  }
}

// A lint fault in a later repetition of a 'Z' run: the decoder passes every
// repetition on event by event, so the gate stops at the faulting event
// itself, whatever the split, exactly as it does on the version-1 bytes.
TEST(SplitInvariance, LintFaultInALaterRepetitionOfARun) {
  Trace trace = {{TraceOp::kFork, 0, 1, 0},
                 {TraceOp::kRead, 1, kInvalidTask, 0}};
  for (int r = 0; r < 3; ++r) {  // task 1 writes after its own halt: L002
    trace.push_back({TraceOp::kWrite, 1, kInvalidTask, 0});
    trace.push_back({TraceOp::kHalt, 1, kInvalidTask, 0});
  }
  trace.push_back({TraceOp::kJoin, 0, 1, 0});
  trace.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  const std::string v2 = encode(trace, 1024, CompressionMode::kRuns);
  // One 'Z' chunk: count, literal(2) of 6 bytes, then define-run(reps 3,
  // template of 2 events [write, halt]), then literal(2).
  ASSERT_EQ(v2[kBinaryHeaderBytes], 'Z');
  ASSERT_EQ(v2.substr(kBinaryHeaderBytes + 9 + 1 + 2 + 6, 3),
            std::string("\x01\x03\x02", 3));

  for (const std::string& wire : {encode(trace, 1024), v2}) {
    const SessionView view =
        expect_split_invariant(wire, wire[4] == 1 ? "v1" : "v2");
    EXPECT_EQ(view.feed_status, ServiceStatus::kLintReject);
    EXPECT_EQ(view.feed_message.rfind("L002 actor-halted at event 4", 0), 0u)
        << view.feed_message;
    EXPECT_EQ(view.close_events, 4u);  // fork, read, write, halt
  }
}

// The pipe transport race2dd --pipe runs: frames into a WorkerPool. A
// 1-worker pool issues session ids 1, 2, ... like a lone service.
TEST(PipeServer, FrameLoopAnswersEveryRequestAndRecovers) {
  // Script: stats, open, feed(garbage->decode reject), a malformed frame.
  WorkerPool pool(1);
  std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  {
    Request stats;
    stats.verb = Verb::kStats;
    write_frame(in, encode_request(stats));
    Request open;
    open.verb = Verb::kOpen;
    write_frame(in, encode_request(open));
    Request feed;
    feed.verb = Verb::kFeed;
    feed.session = 1;
    feed.bytes = "garbage, longer than the 8-byte header";
    write_frame(in, encode_request(feed));
    write_frame(in, std::string("\x42", 1));  // undecodable request
  }
  const std::uint64_t answered = serve_pipe(in, out, pool);
  EXPECT_EQ(answered, 4u);
  std::string payload;
  std::string error;
  Response rsp;
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);  // stats
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);  // open
  EXPECT_EQ(rsp.session, 1u);
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kDecodeReject);
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kBadFrame);
  EXPECT_FALSE(read_frame(out, payload, error));  // clean EOF
  EXPECT_TRUE(error.empty());
  // The pool counts every frame the pipe answered; its shards count none.
  const std::string json = pool.metrics_json();
  EXPECT_NE(json.find("\"frames\":4,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad_frames\":1,"), std::string::npos) << json;
  EXPECT_EQ(json.find("frames", json.find("\"shards\"")), std::string::npos)
      << json;
}

TEST(PipeServer, TruncatedFrameGetsAnErrorThenStops) {
  WorkerPool pool(1);
  std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  in.write("\xff\x00\x00\x00trunc", 9);  // claims 255 bytes, delivers 5
  EXPECT_EQ(serve_pipe(in, out, pool), 1u);
  std::string payload;
  std::string error;
  Response rsp;
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kBadFrame);
  EXPECT_FALSE(read_frame(out, payload, error));  // nothing after it
  const std::string json = pool.metrics_json();
  EXPECT_NE(json.find("\"frames\":1,\"bad_frames\":1,"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace race2d
