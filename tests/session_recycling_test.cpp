// Recycled sessions answer as new ones do.
//
// A DetectionService keeps small closed sessions and resets one in place
// for its next OPEN (service.hpp, "Recycling"). One service here runs every
// session of a long script one after another, so each OPEN after the first
// reuses the session the last CLOSE left: the corpus and hundreds of
// generated programs, in version-1 and version-2 streams and in 2 KiB and
// 7-byte FEEDs, each with a mid-stream SNAPSHOT and a partial and then a
// full DRAIN, and between them sessions that end poisoned by a decode or a
// lint fault, that hit backpressure, that are evicted over their quota, and
// one restored from a blob that carries another pending cap. Every answer's
// encoded bytes, SNAPSHOT blobs included, must equal those of the same
// session on a service of its own, which builds it new.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "runtime/trace_io.hpp"
#include "service/service.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

namespace fs = std::filesystem;

/// One session's requests: OPEN (or RESTORE of `blob`), the stream in
/// pieces with a SNAPSHOT after half of them, a DRAIN of at most two
/// reports, a full DRAIN and CLOSE.
struct Script {
  std::string name;
  std::string wire;
  std::size_t piece = 0;       ///< FEED size in bytes
  std::uint64_t quota = 0;     ///< OPEN's quota, 0 = the default
  ReportPolicy policy = ReportPolicy::kAll;
  std::string blob;            ///< non-empty: RESTORE it instead of OPEN
};

Response ask(DetectionService& service, Verb verb, std::uint32_t session) {
  Request request;
  request.verb = verb;
  request.session = session;
  return service.handle(request);
}

/// Runs `script` as one session and returns every answer, encoded. A FEED
/// refused with backpressure is resent after a full DRAIN. `id` is set to
/// the session's id.
std::vector<std::string> run(DetectionService& service, const Script& script,
                             std::uint32_t& id) {
  std::vector<std::string> answers;
  const auto keep = [&answers](const Response& r) {
    answers.push_back(encode_response(r));
    return r;
  };
  Request open;
  if (script.blob.empty()) {
    open.verb = Verb::kOpen;
    open.open.policy = script.policy;
    open.open.quota_bytes = script.quota;
  } else {
    open.verb = Verb::kRestore;
    open.bytes = script.blob;
  }
  id = keep(service.handle(open)).session;
  const std::size_t pieces =
      (script.wire.size() + script.piece - 1) / script.piece;
  for (std::size_t i = 0; i < pieces; ++i) {
    if (i == pieces / 2) keep(ask(service, Verb::kSnapshot, id));
    Request feed;
    feed.verb = Verb::kFeed;
    feed.session = id;
    feed.bytes = script.wire.substr(i * script.piece, script.piece);
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (keep(service.handle(feed)).status != ServiceStatus::kBackpressure)
        break;
      keep(ask(service, Verb::kDrain, id));
    }
  }
  Request partial;
  partial.verb = Verb::kDrain;
  partial.session = id;
  partial.max_reports = 2;
  keep(service.handle(partial));
  keep(ask(service, Verb::kDrain, id));
  keep(ask(service, Verb::kClose, id));
  return answers;
}

std::uint64_t recycled(const DetectionService& service) {
  const std::string json = service.metrics_json();
  const std::string key = "\"sessions_recycled\":";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

std::string encode(const Trace& trace, CompressionMode mode) {
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 256;
  options.compression = mode;
  return trace_to_binary(trace, options);
}

/// Task 1 writes `loc` and halts; the root then writes it `n` times before
/// joining 1: n write-write races.
Trace racy_writes(std::size_t n, Loc loc) {
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1, 0});
  t.push_back({TraceOp::kWrite, 1, kInvalidTask, loc});
  t.push_back({TraceOp::kHalt, 1, kInvalidTask, 0});
  for (std::size_t i = 0; i < n; ++i)
    t.push_back({TraceOp::kWrite, 0, kInvalidTask, loc});
  t.push_back({TraceOp::kJoin, 0, 1, 0});
  t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return t;
}

/// A stream with a lint fault part-way: task 1 writes after it halted.
Trace lint_faulty() {
  Trace t = racy_writes(3, 40);
  t.insert(t.begin() + 5, {TraceOp::kWrite, 1, kInvalidTask, 41});
  return t;
}

/// Every stream the script runs, each in both FEED sizes: the corpus (text
/// traces in both versions, and their binary twins as stored) and
/// `programs` generated programs in both versions.
std::vector<Script> stream_scripts(std::size_t programs) {
  std::vector<std::pair<std::string, std::string>> streams;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(RACE2D_CORPUS_DIR))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (path.extension() == ".trace") {
      const Trace trace = parse_trace_text(in);
      streams.emplace_back(path.filename().string() + " v1",
                           encode(trace, CompressionMode::kNone));
      streams.emplace_back(path.filename().string() + " v2",
                           encode(trace, CompressionMode::kRuns));
    } else if (path.extension() == ".btrace") {
      streams.emplace_back(path.filename().string(),
                           std::string(std::istreambuf_iterator<char>(in), {}));
    }
  }
  for (std::uint64_t seed = 1; seed <= programs; ++seed) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed)).trace;
    const std::string name = "seed " + std::to_string(seed);
    streams.emplace_back(name + " v1", encode(trace, CompressionMode::kNone));
    streams.emplace_back(name + " v2", encode(trace, CompressionMode::kRuns));
  }
  std::vector<Script> scripts;
  for (const auto& [name, wire] : streams) {
    for (const std::size_t piece : {std::size_t{2} << 10, std::size_t{7}}) {
      Script s;
      s.name = name + " in " + std::to_string(piece) + "-byte FEEDs";
      s.wire = wire;
      s.piece = piece;
      // Every third session reports its first race only.
      if (scripts.size() % 3 == 2) s.policy = ReportPolicy::kFirstOnly;
      scripts.push_back(std::move(s));
    }
  }
  return scripts;
}

/// The limits of every service here: a low pending cap, so that racy
/// streams meet backpressure.
ServiceLimits limits() {
  ServiceLimits l;
  l.max_pending_reports = 64;
  return l;
}

/// A blob of a session half-way through `wire`, taken on a service whose
/// pending cap is 5, not 64.
std::string blob_with_cap_five(const std::string& wire) {
  ServiceLimits other = limits();
  other.max_pending_reports = 5;
  DetectionService service(other);
  const std::uint32_t id = service.handle([] {
    Request open;
    open.verb = Verb::kOpen;
    return open;
  }()).session;
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = id;
  feed.bytes = wire.substr(0, wire.size() / 2);
  EXPECT_EQ(service.handle(feed).status, ServiceStatus::kOk);
  const Response snap = ask(service, Verb::kSnapshot, id);
  EXPECT_EQ(snap.status, ServiceStatus::kOk) << snap.message;
  return snap.blob;
}

TEST(SessionRecycling, ReusedSessionsAnswerByteForByteAsNewOnes) {
  std::vector<Script> scripts = stream_scripts(500);
  const std::size_t streams = scripts.size();
  // The odd sessions, spread through the stream sessions.
  Script decode_fault;
  decode_fault.name = "poisoned by a decode fault";
  decode_fault.wire = "garbage, longer than the 8-byte header";
  decode_fault.piece = 7;
  Script lint_fault;
  lint_fault.name = "poisoned by a lint fault";
  lint_fault.wire = encode(lint_faulty(), CompressionMode::kNone);
  lint_fault.piece = 7;
  Script backpressure;
  backpressure.name = "backpressured";
  backpressure.wire = encode(racy_writes(300, 50), CompressionMode::kNone);
  backpressure.piece = 64;
  Script evicted;
  evicted.name = "evicted over its quota";
  evicted.wire = encode(generate_trace(FuzzPlan::from_seed(77)).trace,
                        CompressionMode::kNone);
  evicted.piece = 2 << 10;
  evicted.quota = 1024;
  Script restored;
  restored.name = "restored with a pending cap of 5";
  restored.wire = encode(racy_writes(40, 60), CompressionMode::kNone);
  restored.blob = blob_with_cap_five(restored.wire);
  restored.wire = restored.wire.substr(restored.wire.size() / 2);
  restored.piece = 7;
  // Its session, once closed, is the spare the next OPEN resets: a cap of
  // 5 left behind would send the ten races after it into backpressure.
  Script after_restored;
  after_restored.name = "ten races after the restored session";
  after_restored.wire = encode(racy_writes(10, 70), CompressionMode::kNone);
  after_restored.piece = 7;
  const Script odd[] = {decode_fault, lint_fault,     backpressure,
                        evicted,      restored,       after_restored};
  for (std::size_t i = 0; i < std::size(odd); ++i)
    scripts.insert(scripts.begin() +
                       static_cast<std::ptrdiff_t>((i + 1) * streams /
                                                   (std::size(odd) + 1) + i),
                   odd[i]);

  DetectionService recycler(limits());
  std::uint64_t reused = 0;
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.name);
    const std::uint64_t before = recycled(recycler);
    std::uint32_t id = 0;
    const std::vector<std::string> answers = run(recycler, script, id);
    reused += recycled(recycler) - before;

    DetectionService fresh(limits());
    fresh.configure_session_ids(id, 1);
    std::uint32_t fresh_id = 0;
    const std::vector<std::string> expected = run(fresh, script, fresh_id);
    ASSERT_EQ(fresh_id, id);
    ASSERT_EQ(answers.size(), expected.size());
    for (std::size_t i = 0; i < answers.size(); ++i)
      ASSERT_EQ(answers[i], expected[i]) << "answer " << i;
    EXPECT_EQ(recycled(fresh), 0u);
  }
  // Every OPEN but the first and the one whose quota is too small for the
  // spare reuses it; RESTORE always builds.
  EXPECT_EQ(reused, scripts.size() - 3);
  EXPECT_EQ(recycler.live_sessions(), 0u);
  EXPECT_EQ(recycler.resident_bytes(), 0u);
}

TEST(SessionRecycling, SmallQuotaOpenGetsANewSession) {
  DetectionService service(limits());
  // Feed, drain and read the one live session's footprint before CLOSE.
  Request open;
  open.verb = Verb::kOpen;
  const std::uint32_t id = service.handle(open).session;
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = id;
  feed.bytes = encode(generate_trace(FuzzPlan::from_seed(5)).trace,
                      CompressionMode::kNone);
  ASSERT_EQ(service.handle(feed).status, ServiceStatus::kOk);
  ASSERT_EQ(ask(service, Verb::kDrain, id).status, ServiceStatus::kOk);
  const std::size_t footprint = service.resident_bytes();
  ASSERT_GT(footprint, 0u);
  ASSERT_LE(footprint, DetectionService::kSpareBytes);
  ASSERT_EQ(ask(service, Verb::kClose, id).status, ServiceStatus::kOk);

  // A quota one byte short of 64 times the spare's footprint: a new
  // session, and the spare stays.
  open.open.quota_bytes =
      DetectionService::kSpareQuotaRatio * footprint - 1;
  const Response small = service.handle(open);
  ASSERT_EQ(small.status, ServiceStatus::kOk);
  EXPECT_EQ(recycled(service), 0u);
  // 64 times exactly: the spare.
  open.open.quota_bytes = DetectionService::kSpareQuotaRatio * footprint;
  const Response enough = service.handle(open);
  ASSERT_EQ(enough.status, ServiceStatus::kOk);
  EXPECT_EQ(recycled(service), 1u);
  EXPECT_EQ(service.live_sessions(), 2u);
}

TEST(SessionRecycling, OnlyCloseRecyclesAndOnlySmallSessions) {
  DetectionService service(limits());
  // An evicted session is freed: the next OPEN builds.
  Request open;
  open.verb = Verb::kOpen;
  open.open.quota_bytes = 1024;
  std::uint32_t id = service.handle(open).session;
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = id;
  feed.bytes = encode(generate_trace(FuzzPlan::from_seed(77)).trace,
                      CompressionMode::kNone);
  ASSERT_EQ(service.handle(feed).status, ServiceStatus::kQuotaEvicted);
  open.open.quota_bytes = 0;
  id = service.handle(open).session;
  EXPECT_EQ(recycled(service), 0u);

  // A session over kSpareBytes at CLOSE is freed too: 4 000 locations of
  // shadow alone take 4096 slots of 24 bytes.
  Trace wide;
  wide.push_back({TraceOp::kWrite, 0, kInvalidTask, 0});
  for (Loc loc = 1; loc < 4000; ++loc)
    wide.push_back({TraceOp::kWrite, 0, kInvalidTask, loc});
  wide.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  feed.session = id;
  feed.bytes = encode(wide, CompressionMode::kNone);
  ASSERT_EQ(service.handle(feed).status, ServiceStatus::kOk);
  ASSERT_GT(service.resident_bytes(), DetectionService::kSpareBytes);
  ASSERT_EQ(ask(service, Verb::kClose, id).status, ServiceStatus::kOk);
  id = service.handle(open).session;
  EXPECT_EQ(recycled(service), 0u);

  // A small session at CLOSE is kept, even one that CLOSE finds faulty
  // (this one was fed nothing), and the next OPEN resets it.
  ASSERT_EQ(ask(service, Verb::kClose, id).status,
            ServiceStatus::kDecodeReject);
  service.handle(open);
  EXPECT_EQ(recycled(service), 1u);
}

}  // namespace
}  // namespace race2d
