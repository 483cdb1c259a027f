// DetectionService: protocol codecs, multi-session multiplexing, quota
// eviction, backpressure, malformed-frame recovery, and determinism of the
// report streams under arbitrary session interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace race2d {
namespace {

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
  Response bad = service.handle_frame("\x63");
  EXPECT_EQ(bad.status, ServiceStatus::kBadFrame);
}

TEST(Service, SessionLimitRefusesOpen) {
  ServiceLimits limits;
  limits.max_sessions = 2;
  DetectionService service(limits);
  open_session(service);
  open_session(service);
  Request req;
  req.verb = Verb::kOpen;
  EXPECT_EQ(service.handle(req).status, ServiceStatus::kSessionLimit);
  EXPECT_EQ(service.live_sessions(), 2u);
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
}

TEST(PipeServer, FrameLoopAnswersEveryRequestAndRecovers) {
  // Script: stats, open, feed(garbage->decode reject), a malformed frame.
  DetectionService service;
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
  const std::uint64_t answered = serve_pipe(in, out, service);
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
}

TEST(PipeServer, TruncatedFrameGetsAnErrorThenStops) {
  DetectionService service;
  std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  in.write("\xff\x00\x00\x00trunc", 9);  // claims 255 bytes, delivers 5
  serve_pipe(in, out, service);
  std::string payload;
  std::string error;
  Response rsp;
  ASSERT_TRUE(read_frame(out, payload, error));
  ASSERT_TRUE(decode_response(payload, rsp, error));
  EXPECT_EQ(rsp.status, ServiceStatus::kBadFrame);
}

}  // namespace
}  // namespace race2d
