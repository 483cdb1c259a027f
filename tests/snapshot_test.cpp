// Session snapshot/restore: round-trip fidelity at every chunk boundary and
// across a long program restored every 64 frames, OPENs naming either
// engine serving the same session, cross-worker migration through the
// pool, and the rejection contract — every truncation prefix and every
// single-bit flip of a valid blob must bounce with a stable K-code, never
// crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "composed_program.hpp"
#include "compress/spill_tier.hpp"
#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "runtime/trace_io.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/worker_pool.hpp"

namespace race2d {
namespace {

Trace racy_trace() {
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

std::uint32_t open_session(DetectionService& service,
                           DetectorEngine engine = DetectorEngine::kDsu) {
  Request req;
  req.verb = Verb::kOpen;
  req.open.engine = engine;
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
                                      std::uint32_t session) {
  std::vector<RaceReport> out;
  for (;;) {
    Request req;
    req.verb = Verb::kDrain;
    req.session = session;
    const Response rsp = service.handle(req);
    EXPECT_EQ(rsp.status, ServiceStatus::kOk);
    out.insert(out.end(), rsp.drain.reports.begin(), rsp.drain.reports.end());
    if (!rsp.drain.more) return out;
  }
}

std::string snapshot_via_service(DetectionService& service,
                                 std::uint32_t session) {
  Request req;
  req.verb = Verb::kSnapshot;
  req.session = session;
  const Response rsp = service.handle(req);
  EXPECT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  EXPECT_FALSE(rsp.blob.empty());
  return rsp.blob;
}

/// Re-seals the payload CRC after a deliberate edit, so the frame checks
/// pass and the payload decoder must catch the edit itself.
void reseal(std::string& blob) {
  const std::uint32_t crc = crc32c(blob.data() + 16, blob.size() - 16);
  for (int i = 0; i < 4; ++i)
    blob[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xffu);
}

std::string le64(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  return out;
}

std::string le32(std::uint32_t v) { return le64(v).substr(0, 4); }

/// Replaces `len` payload bytes at blob offset `at` with `with`, then fixes
/// the header's payload length and re-seals the CRC.
std::string splice(const std::string& blob, std::size_t at, std::size_t len,
                   const std::string& with) {
  std::string out = blob;
  out.replace(at, len, with);
  out.replace(8, 4, le32(static_cast<std::uint32_t>(out.size() - 16)));
  reseal(out);
  return out;
}

/// A wire stream cut into one-event chunks, and the byte offset just past
/// its first `events` chunks.
struct CutStream {
  std::string wire;
  std::size_t cut = 0;
};
CutStream cut_after(const std::string& text, int events) {
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 1;
  CutStream out;
  out.wire = trace_to_binary(parse_trace_text(text), options);
  out.cut = kBinaryHeaderBytes;
  for (int chunk = 0; chunk < events; ++chunk) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(out.wire[out.cut + 1 + i]))
             << (8 * i);
    out.cut += 9 + len;
  }
  return out;
}

/// One lint line entry: the task, its left and right neighbours, no finish
/// scope, not halted.
std::string lint_task(TaskId id, TaskId left, TaskId right) {
  return le32(id) + le32(left) + le32(right) + le32(0) + std::string(1, '\0');
}

/// Has the blob's error-code prefix: "Kxxx: ...".
bool has_k_code(const std::string& error) {
  return error.size() >= 5 && error[0] == 'K' &&
         std::isdigit(static_cast<unsigned char>(error[1])) &&
         std::isdigit(static_cast<unsigned char>(error[2])) &&
         std::isdigit(static_cast<unsigned char>(error[3])) &&
         error[4] == ':';
}

// The central property: snapshot at EVERY feed-chunk boundary, restore into
// a fresh service, feed the remainder — the combined report stream is
// bit-identical to an uninterrupted run.
TEST(Snapshot, RoundTripsAtEveryChunkBoundary) {
  constexpr std::size_t kChunk = 64;
  for (const std::uint64_t seed : {7ull, 31ull, 123ull}) {
    const Trace trace = generated(seed);
    const std::string wire = trace_to_binary(trace);
    const std::vector<RaceReport> expected = detect_races_trace(trace);
    for (std::size_t cut = 0; cut <= wire.size(); cut += kChunk) {
      // Phase 1: feed the prefix, snapshot (pending reports and all).
      DetectionService a;
      const std::uint32_t ida = open_session(a);
      for (std::size_t off = 0; off < cut; off += kChunk) {
        const Response r = feed_bytes(
            a, ida, wire.substr(off, std::min(kChunk, cut - off)));
        ASSERT_EQ(r.status, ServiceStatus::kOk) << r.message;
      }
      const std::string blob = snapshot_via_service(a, ida);
      std::uint64_t fed = 0;
      std::string error;
      ASSERT_TRUE(snapshot_fed_bytes(blob, fed, error)) << error;
      EXPECT_EQ(fed, cut);

      // Phase 2: restore into a DIFFERENT service, feed the remainder.
      DetectionService b;
      Request restore;
      restore.verb = Verb::kRestore;
      restore.bytes = blob;
      const Response restored = b.handle(restore);
      ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
      const std::uint32_t idb = restored.session;
      for (std::size_t off = cut; off < wire.size(); off += kChunk) {
        const Response r = feed_bytes(
            b, idb, wire.substr(off, std::min(kChunk, wire.size() - off)));
        ASSERT_EQ(r.status, ServiceStatus::kOk)
            << "seed " << seed << " cut " << cut << ": " << r.message;
      }
      EXPECT_EQ(drain_session(b, idb), expected)
          << "seed " << seed << " cut " << cut;
      Request close;
      close.verb = Verb::kClose;
      close.session = idb;
      const Response closed = b.handle(close);
      ASSERT_EQ(closed.status, ServiceStatus::kOk);
      EXPECT_TRUE(closed.close.complete);
      EXPECT_EQ(closed.close.events, trace.size());
    }
  }
}

// The same property over a version-2 run-compressed stream: a snapshot cut
// can land inside a 'Z' frame (the decoder's partial-chunk buffer, the
// chunk dictionary lifetime) and even between the materialized first
// repetition of a run and its fast-forwarded remainder. Every 64-byte split
// must still finish bit-identical to the uninterrupted uncompressed run.
TEST(Snapshot, RoundTripsCompressedStreamsAtEverySplit) {
  constexpr std::size_t kChunk = 64;
  BinaryWriteOptions zopt;
  zopt.compression = CompressionMode::kRuns;
  zopt.chunk_payload_bytes = 512;  // several 'Z' frames even on small traces
  // A run-heavy trace (tight access loops) plus a generated one: the former
  // exercises the detector fast path across the snapshot boundary, the
  // latter the literal-item paths.
  Trace loops;
  loops.push_back({TraceOp::kFork, 0, 1});
  for (int i = 0; i < 300; ++i) {
    loops.push_back({TraceOp::kRead, 1, kInvalidTask, 0x40});
    loops.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x40});
  }
  loops.push_back({TraceOp::kHalt, 1});
  loops.push_back({TraceOp::kJoin, 0, 1});
  loops.push_back({TraceOp::kHalt, 0});
  for (const Trace& trace : {loops, generated(123)}) {
    const std::string wire = trace_to_binary(trace, zopt);
    const std::vector<RaceReport> expected = detect_races_trace(trace);
    for (std::size_t cut = 0; cut <= wire.size(); cut += kChunk) {
      DetectionService a;
      const std::uint32_t ida = open_session(a);
      for (std::size_t off = 0; off < cut; off += kChunk) {
        const Response r = feed_bytes(
            a, ida, wire.substr(off, std::min(kChunk, cut - off)));
        ASSERT_EQ(r.status, ServiceStatus::kOk) << r.message;
      }
      const std::string blob = snapshot_via_service(a, ida);
      DetectionService b;
      Request restore;
      restore.verb = Verb::kRestore;
      restore.bytes = blob;
      const Response restored = b.handle(restore);
      ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
      const std::uint32_t idb = restored.session;
      for (std::size_t off = cut; off < wire.size(); off += kChunk) {
        const Response r = feed_bytes(
            b, idb, wire.substr(off, std::min(kChunk, wire.size() - off)));
        ASSERT_EQ(r.status, ServiceStatus::kOk)
            << "cut " << cut << ": " << r.message;
      }
      EXPECT_EQ(drain_session(b, idb), expected) << "cut " << cut;
      Request close;
      close.verb = Verb::kClose;
      close.session = idb;
      const Response closed = b.handle(close);
      ASSERT_EQ(closed.status, ServiceStatus::kOk) << closed.message;
      EXPECT_TRUE(closed.close.complete);
      EXPECT_EQ(closed.close.events, trace.size());
    }
  }
}

// A long program whose session is snapshotted and restored every 64 frames:
// 2 000 composed subprograms, so each restore carries thousands of tasks
// and cells, and the drained stream still matches serial replay report for
// report.
TEST(Snapshot, LongComposedProgramRestoredEvery64Frames) {
  constexpr std::size_t kFrame = 1024;
  const Trace trace = composed_program(2026, 2000);
  const std::string wire = trace_to_binary(trace);
  auto session = std::make_unique<DetectionSession>(ReportPolicy::kAll,
                                                    std::size_t{1} << 20);
  std::vector<RaceReport> got;
  std::size_t restores = 0;
  for (std::size_t off = 0, frame = 1; off < wire.size();
       off += kFrame, ++frame) {
    const DetectionSession::FeedOutcome fed =
        session->feed(wire.substr(off, kFrame));
    ASSERT_EQ(fed.status, ServiceStatus::kOk) << fed.message;
    bool more = false;
    const std::vector<RaceReport> drained = session->drain(0, more);
    got.insert(got.end(), drained.begin(), drained.end());
    if (frame % 64 == 0) {
      RestoreOutcome restored =
          restore_session(snapshot_session(*session, std::size_t{1} << 30));
      ASSERT_NE(restored.session, nullptr) << restored.error;
      session = std::move(restored.session);
      ++restores;
    }
  }
  EXPECT_TRUE(session->close().complete);
  EXPECT_GE(restores, 10u);
  EXPECT_EQ(got, detect_races_trace(trace));
}

// Every session runs the DSU detector, whichever engine its OPEN names: two
// sessions opened as DSU and as DePa and fed the same stream drain the
// same reports and snapshot to the same bytes, mid-stream and at the end.
TEST(Snapshot, OpensNamingEitherEngineServeTheSameSession) {
  for (const std::uint64_t seed : {7ull, 31ull, 123ull}) {
    const Trace trace = generated(seed);
    const std::string wire = trace_to_binary(trace);
    DetectionService service;
    const std::uint32_t dsu = open_session(service);
    const std::uint32_t depa = open_session(service, DetectorEngine::kDepa);
    const std::size_t half = wire.size() / 2;
    for (const std::uint32_t id : {dsu, depa})
      ASSERT_EQ(feed_bytes(service, id, wire.substr(0, half)).status,
                ServiceStatus::kOk);
    EXPECT_EQ(snapshot_via_service(service, dsu),
              snapshot_via_service(service, depa))
        << "seed " << seed;
    const std::vector<RaceReport> first = drain_session(service, dsu);
    EXPECT_EQ(drain_session(service, depa), first) << "seed " << seed;
    for (const std::uint32_t id : {dsu, depa})
      ASSERT_EQ(feed_bytes(service, id, wire.substr(half)).status,
                ServiceStatus::kOk);
    EXPECT_EQ(snapshot_via_service(service, dsu),
              snapshot_via_service(service, depa))
        << "seed " << seed;
    std::vector<RaceReport> all = first;
    const std::vector<RaceReport> rest = drain_session(service, dsu);
    all.insert(all.end(), rest.begin(), rest.end());
    EXPECT_EQ(drain_session(service, depa), rest) << "seed " << seed;
    EXPECT_EQ(all, detect_races_trace(trace)) << "seed " << seed;
  }
}

// Restore is the migration mechanism: a session snapshotted on one worker
// restores onto a DIFFERENT worker of a different pool under a fresh id
// congruent to the target shard, and finishes the stream there.
TEST(Snapshot, MigratesAcrossWorkersThroughThePool) {
  const Trace trace = generated(55);
  const std::string wire = trace_to_binary(trace);
  const std::vector<RaceReport> expected = detect_races_trace(trace);
  const std::size_t cut = wire.size() / 2;

  WorkerPool source(8);
  Request open;
  open.verb = Verb::kOpen;
  Response rsp = source.handle(open);
  ASSERT_EQ(rsp.status, ServiceStatus::kOk);
  const std::uint32_t id = rsp.session;
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = id;
  feed.bytes = wire.substr(0, cut);
  ASSERT_EQ(source.handle(feed).status, ServiceStatus::kOk);
  Request snap;
  snap.verb = Verb::kSnapshot;
  snap.session = id;
  rsp = source.handle(snap);
  ASSERT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  const std::string blob = rsp.blob;

  WorkerPool target(8);
  const std::size_t shard = (source.shard_of(id) + 5) % 8;  // a different one
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = blob;
  Response restored;
  std::atomic<bool> done{false};
  target.submit_to(shard, restore, [&](Response r) {
    restored = std::move(r);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  EXPECT_EQ(restored.session % 8u, shard);
  EXPECT_NE(restored.session, id);

  feed.session = restored.session;
  feed.bytes = wire.substr(cut);
  ASSERT_EQ(target.handle(feed).status, ServiceStatus::kOk);
  std::vector<RaceReport> got;
  for (;;) {
    Request drain;
    drain.verb = Verb::kDrain;
    drain.session = restored.session;
    const Response d = target.handle(drain);
    ASSERT_EQ(d.status, ServiceStatus::kOk);
    got.insert(got.end(), d.drain.reports.begin(), d.drain.reports.end());
    if (!d.drain.more) break;
  }
  EXPECT_EQ(got, expected);
}

TEST(Snapshot, EveryTruncationPrefixIsRejected) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(generated(9));
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, wire.size() / 2)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const RestoreOutcome out = restore_session(blob.substr(0, len));
    ASSERT_EQ(out.session, nullptr) << "prefix " << len;
    ASSERT_TRUE(has_k_code(out.error)) << "prefix " << len << ": " << out.error;
    // A truncated blob dies in the frame checks, before any payload parse.
    const std::string code = out.error.substr(0, 4);
    EXPECT_TRUE(code == "K001" || code == "K003") << "prefix " << len << ": "
                                                  << out.error;
  }
  // The untruncated blob still restores — the loop did not mutate it.
  EXPECT_NE(restore_session(blob).session, nullptr);
}

TEST(Snapshot, EverySingleBitFlipIsRejected) {
  // A small trace keeps the blob small enough to try literally every bit.
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(racy_trace());
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, wire.size() - 3)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      const RestoreOutcome out = restore_session(mutated);
      ASSERT_EQ(out.session, nullptr) << "byte " << byte << " bit " << bit;
      ASSERT_TRUE(has_k_code(out.error))
          << "byte " << byte << " bit " << bit << ": " << out.error;
    }
  }
}

TEST(Snapshot, StructurallyInvalidPayloadsGetTheirOwnCodes) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  ASSERT_EQ(feed_bytes(service, id, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  // Corrupt the policy byte (payload offset 8 → blob offset 24) to an
  // out-of-range value and RE-SEAL the CRC: the frame checks pass, the
  // payload decoder must catch it as K006.
  ASSERT_GT(blob.size(), 25u);
  std::string mutated = blob;
  mutated[24] = '\x7f';
  reseal(mutated);
  RestoreOutcome out = restore_session(mutated);
  ASSERT_EQ(out.session, nullptr);
  EXPECT_EQ(out.error.substr(0, 4), "K006") << out.error;

  // A blob of the version-3 layout (engine byte, DePa section, versioned
  // DSU cells) answers K002 before its payload is read.
  std::string old_layout = blob;
  old_layout[7] = '\x03';
  out = restore_session(old_layout);
  EXPECT_EQ(out.session, nullptr);
  EXPECT_EQ(out.error.substr(0, 4), "K002") << out.error;
}

// The lint gate admits a task the detector must know: both start at the
// root and lint admits exactly the forks the detector applies, so their
// task counts are equal. A well-sealed blob whose lint section counts one
// task more or one fewer than the DSU is K007 — a gate that knew task 2
// would pass `write 2 11` to a detector without it, which throws out of
// the service.
TEST(Snapshot, LintTaskCountMustMatchTheDetector) {
  const CutStream s = cut_after("fork 0 1\nwrite 1 10\nhalt 1\n"
                                "join 0 1\nhalt 0\n", 2);
  DetectionService a;
  const std::uint32_t id = open_session(a);
  ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, s.cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, id);
  // Two tasks on the line: task 1 left of task 0 and on top of the stack.
  const std::string tasks = le64(2) + le64(2) + lint_task(0, 1, kInvalidTask) +
                            lint_task(1, kInvalidTask, 0) + le64(2) + le32(0) +
                            le32(1);
  const std::size_t at = blob.find(tasks);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(tasks), at);

  const std::string one_more =
      le64(3) + le64(3) + lint_task(0, 1, kInvalidTask) + lint_task(1, 2, 0) +
      lint_task(2, kInvalidTask, 1) + le64(3) + le32(0) + le32(1) + le32(2);
  const std::string one_fewer = le64(1) + le64(1) +
                                lint_task(0, kInvalidTask, kInvalidTask) +
                                le64(1) + le32(0);
  for (const std::string& mutant : {one_more, one_fewer}) {
    DetectionService b;
    Request restore;
    restore.verb = Verb::kRestore;
    restore.bytes = splice(blob, at, tasks.size(), mutant);
    const Response rsp = b.handle(restore);
    EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
    EXPECT_EQ(rsp.message.substr(0, 4), "K007") << rsp.message;
    EXPECT_EQ(b.live_sessions(), 0u);
  }

  // Control: the unmutated section restores and finishes the stream.
  DetectionService b;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = splice(blob, at, tasks.size(), tasks);
  const Response rsp = b.handle(restore);
  ASSERT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  const Response rest = feed_bytes(b, rsp.session, s.wire.substr(s.cut));
  EXPECT_EQ(rest.status, ServiceStatus::kOk) << rest.message;
  EXPECT_EQ(rest.feed.events, 3u);
}

// The lint gate's fast path serves the task on top of the lint stack
// without re-running the actor checks, so it must not trust a restored
// stack to hold only running tasks. A well-sealed blob that marks the
// running task halted is either refused with K007 or restores a session
// whose gate still rejects that task's next access with an L-code.
TEST(Snapshot, HaltedTaskOnTheRestoredLintStackIsStillRejected) {
  const CutStream s = cut_after("fork 0 1\nwrite 1 10\nwrite 1 11\nhalt 1\n"
                                "join 0 1\nhalt 0\n", 2);
  DetectionService a;
  const std::uint32_t id = open_session(a);
  ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, s.cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, id);

  // The lint section's line and stack: task 1 left of task 0, running on
  // top of the stack.
  const std::string lint_tasks = le64(2) + le64(2) +
                                 lint_task(0, 1, kInvalidTask) +
                                 lint_task(1, kInvalidTask, 0) + le64(2) +
                                 le32(0) + le32(1);
  const std::size_t at = blob.find(lint_tasks);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(lint_tasks), at);
  std::string mutated = blob;
  mutated[at + 8 + 8 + 17 + 16] = '\x01';  // task 1's `halted`
  reseal(mutated);

  DetectionService b;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = mutated;
  const Response restored = b.handle(restore);
  if (restored.status != ServiceStatus::kOk) {
    EXPECT_EQ(restored.message.substr(0, 4), "K007") << restored.message;
    return;
  }
  const Response next = feed_bytes(b, restored.session, s.wire.substr(s.cut));
  EXPECT_EQ(next.status, ServiceStatus::kLintReject) << next.message;
  EXPECT_EQ(next.message.substr(0, 1), "L") << next.message;
  EXPECT_EQ(next.feed.events, 0u);
}

/// 5 000 children of the root, one after another, then child 5 001 forked
/// and running, with the stream cut there. The detector compacted once,
/// after the join of child 4 095: it carries the root and holds slots for
/// tasks 4 096 to 5 001 by offset, 907 in all.
constexpr TaskId kChildren = 5000;
constexpr TaskId kRunning = kChildren + 1;
CutStream children_then_running() {
  std::ostringstream text;
  for (TaskId c = 1; c <= kChildren; ++c)
    text << "fork 0 " << c << "\nwrite " << c << " 10\nhalt " << c
         << "\njoin 0 " << c << '\n';
  text << "fork 0 " << kRunning << "\nwrite " << kRunning << " 11\nhalt "
       << kRunning << "\njoin 0 " << kRunning << "\nhalt 0\n";
  return cut_after(text.str(), 4 * kChildren + 1);
}

// The gate passes the detector events by tasks on its line, so every such
// task needs a detector slot. A resealed blob whose lint line names task 7,
// which the detector dropped in a compaction pass long ago, is K007 — at
// restore, not as a ContractViolation out of the next FEED.
TEST(Snapshot, LintLineNamingADroppedTaskIsRejected) {
  const CutStream s = children_then_running();
  DetectionService a;
  const std::uint32_t id = open_session(a);
  ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, s.cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, id);

  // The line is the root and its running child, on top of the stack.
  const std::string line =
      le64(kRunning + 1) + le64(2) + lint_task(0, kRunning, kInvalidTask) +
      lint_task(kRunning, kInvalidTask, 0) + le64(2) + le32(0) +
      le32(kRunning);
  const std::size_t at = blob.find(line);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(line), at);

  // Task 7 back on the line, left of the running child and on top of the
  // stack, as if it had been forked and never joined.
  const std::string revived =
      le64(kRunning + 1) + le64(3) + lint_task(0, kRunning, kInvalidTask) +
      lint_task(7, kInvalidTask, kRunning) + lint_task(kRunning, 7, 0) +
      le64(3) + le32(0) + le32(kRunning) + le32(7);
  DetectionService b;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = splice(blob, at, line.size(), revived);
  const Response rsp = b.handle(restore);
  EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
  EXPECT_EQ(rsp.message, "K007: lint line names a task the DSU dropped");
  EXPECT_EQ(b.live_sessions(), 0u);

  // Control: the unmutated blob restores, and the stream finishes.
  restore.bytes = splice(blob, at, line.size(), line);
  const Response ok = b.handle(restore);
  ASSERT_EQ(ok.status, ServiceStatus::kOk) << ok.message;
  const Response rest = feed_bytes(b, ok.session, s.wire.substr(s.cut));
  EXPECT_EQ(rest.status, ServiceStatus::kOk) << rest.message;
  EXPECT_EQ(rest.feed.events, 4u);
}

// The DSU section's task index and forest are cross-checked too: every
// mutant below would hand the detector a slot it cannot serve (an id with
// no slot, a find that never returns, or a line task that the next pass
// drops), and each is K007 at restore.
TEST(Snapshot, DsuTaskIndexMutantsAreRejected) {
  const CutStream s = children_then_running();
  DetectionService a;
  const std::uint32_t id = open_session(a);
  ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, s.cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, id);

  constexpr std::size_t kSlots = kRunning + 1 - 4096 + 1;  // 907
  const std::string index =
      le64(kRunning + 1) + le64(4096) + le64(1) + le32(0) + le64(kSlots);
  const std::size_t at = blob.find(index);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(index), at);
  const std::size_t parent = at + index.size();
  const std::size_t label = parent + 5 * kSlots;  // past parent and rank

  struct Mutant {
    const char* what;
    std::string blob;
    const char* message;
  };
  const auto edit = [&](std::size_t off, const std::string& with) {
    std::string out = blob;
    out.replace(off, with.size(), with);
    reseal(out);
    return out;
  };
  const char* const kCarried =
      "DSU carried task ids must ascend below the base";
  const char* const kRank = "DSU rank does not rise toward the root";
  const Mutant mutants[] = {
      {"carried id at the base", edit(at, le64(kRunning + 1) + le64(0)),
       kCarried},
      {"carried ids not ascending",
       splice(blob, at, index.size(),
              le64(kRunning + 1) + le64(4096) + le64(2) + le32(0) + le32(0) +
                  le64(kSlots + 1)),
       kCarried},
      {"one slot too few for the index", edit(at, le64(kRunning + 2)),
       "DSU slot count disagrees with its task index"},
      {"parent cycle", edit(parent, le32(1) + le32(0)), kRank},
      {"running task under a joined task of equal rank",
       edit(parent + 4 * (kSlots - 1), le32(5)), kRank},
      {"root labeled by the running task", edit(label, le32(kSlots - 1)),
       "DSU label lies outside its set"},
      {"running task absorbed by the root",
       edit(parent + 4 * (kSlots - 1), le32(0)),
       "lint line names a task the DSU counts as joined"},
  };
  for (const Mutant& m : mutants) {
    DetectionService b;
    Request restore;
    restore.verb = Verb::kRestore;
    restore.bytes = m.blob;
    const Response rsp = b.handle(restore);
    EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject) << m.what;
    EXPECT_EQ(rsp.message, std::string("K007: ") + m.message) << m.what;
    EXPECT_EQ(b.live_sessions(), 0u);
  }
}

// The lint gate counts each task's held mutexes from the restored mutex
// section. A live gate never holds a semaphore-range id as a mutex nor
// lists one id twice, so a resealed blob that does is refused with K007.
TEST(Snapshot, LintMutexSectionMutantsAreRejected) {
  // Cut after the two acquires, so both are held.
  const CutStream s = cut_after("acquire 0 10\nacquire 0 20\nrelease 0 20\n"
                                "release 0 10\nhalt 0\n", 2);
  DetectionService a;
  const std::uint32_t id = open_session(a);
  ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, s.cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, id);

  using Entries = std::vector<std::pair<Loc, TaskId>>;
  const auto section = [&](const Entries& entries) {
    std::string out = le64(entries.size());
    for (const auto& [loc, holder] : entries) out += le64(loc) + le32(holder);
    return out;
  };
  // The export's order is the hash table's, so look for either.
  std::string held = section({{0x10, 0}, {0x20, 0}});
  std::size_t at = blob.find(held);
  if (at == std::string::npos) {
    held = section({{0x20, 0}, {0x10, 0}});
    at = blob.find(held);
  }
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.rfind(held), at);

  const auto restore = [&](DetectionService& into, const Entries& entries) {
    Request req;
    req.verb = Verb::kRestore;
    req.bytes = splice(blob, at, held.size(), section(entries));
    return into.handle(req);
  };
  constexpr Loc kTop = ~Loc{0};
  const Entries mutants[] = {
      {{0x10, 0}, {kSemaphoreBit | 0x20, 0}},
      {{0x10, 0}, {0x20, 0}, {0x20, kInvalidTask}},
      {{0x10, 0}, {0x20, 0}, {0x20, 0}},
      {{0x10, 0}, {kTop, 0}, {0x20, 0}, {0x20, kInvalidTask}, {kTop, 0}},
  };
  for (const Entries& entries : mutants) {
    DetectionService b;
    const Response rsp = restore(b, entries);
    EXPECT_NE(rsp.status, ServiceStatus::kOk);
    EXPECT_EQ(rsp.message.substr(0, 4), "K007") << rsp.message;
  }

  // Control: the same two holdings in the other order restore, and the
  // rest of the stream releases both cleanly.
  DetectionService b;
  const Response rsp = restore(b, {{0x20, 0}, {0x10, 0}});
  ASSERT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  const Response rest = feed_bytes(b, rsp.session, s.wire.substr(s.cut));
  EXPECT_EQ(rest.status, ServiceStatus::kOk) << rest.message;
  EXPECT_EQ(rest.feed.events, 3u);
}

// A snapshottable session cannot vary some of its state: its lint gate is
// unfinished and has found nothing, and its decoder's frame size follows
// from the phase. The blob stores none of it, so no resealed byte edit can
// restore a session that throws out of the service or reads past a buffer
// on its next FEED. Every mutant below answers RESTORE with OK or a K-code,
// and an accepted one answers the rest of the stream, a DRAIN and a CLOSE.
TEST(Snapshot, ResealedByteMutantsNeverEscapeTheService) {
  // The root holds a mutex across a race between its child's write and its
  // own, so every cut below has a held mutex, shadow cells and a pending
  // report.
  const CutStream s = cut_after("acquire 0 40\nfork 0 1\nwrite 1 10\n"
                                "read 1 11\nhalt 1\nwrite 0 10\nfork 0 2\n"
                                "write 2 12\nhalt 2\njoin 0 2\njoin 0 1\n"
                                "release 0 40\nhalt 0\n", 6);
  ASSERT_EQ(s.wire[s.cut], 'C');
  ASSERT_GT(static_cast<unsigned char>(s.wire[s.cut + 1]), 1u);
  // Between chunks, inside the next chunk's header, inside its payload.
  const std::size_t cuts[] = {s.cut, s.cut + 1 + 3, s.cut + 9 + 1};
  const unsigned char values[] = {0x00, 0x01, 0x02, 0x7f, 0x80, 0xff};

  std::vector<std::string> escapes;
  std::vector<std::string> stalls;
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  // Runs one request; an exception out of handle() is an escape.
  const auto answers = [&escapes](DetectionService& service,
                                  const Request& request, Response& rsp,
                                  const std::string& where) {
    try {
      rsp = service.handle(request);
      return true;
    } catch (const std::exception& e) {
      escapes.push_back(where + ": " + e.what());
      return false;
    }
  };
  for (const std::size_t cut : cuts) {
    DetectionService a;
    const std::uint32_t id = open_session(a);
    ASSERT_EQ(feed_bytes(a, id, s.wire.substr(0, cut)).status,
              ServiceStatus::kOk);
    const std::string blob = snapshot_via_service(a, id);
    for (std::size_t byte = 16; byte < blob.size(); ++byte) {
      for (const unsigned char value : values) {
        std::string mutated = blob;
        mutated[byte] = static_cast<char>(value);
        reseal(mutated);
        ++mutants;
        std::ostringstream where;
        where << "cut " << cut << " byte " << byte << " = "
              << static_cast<unsigned>(value);
        DetectionService b;
        Request restore;
        restore.verb = Verb::kRestore;
        restore.bytes = mutated;
        Response rsp;
        if (!answers(b, restore, rsp, where.str() + " RESTORE")) continue;
        if (rsp.status != ServiceStatus::kOk) {
          EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject) << where.str();
          EXPECT_TRUE(has_k_code(rsp.message))
              << where.str() << ": " << rsp.message;
          continue;
        }
        ++accepted;
        Request feed;
        feed.verb = Verb::kFeed;
        feed.session = rsp.session;
        feed.bytes = s.wire.substr(cut);
        Request drain;
        drain.verb = Verb::kDrain;
        drain.session = rsp.session;
        Request close;
        close.verb = Verb::kClose;
        close.session = rsp.session;
        Response out;
        // A FEED refused for backpressure must be followed by a DRAIN that
        // hands over a report, or the session can never make progress.
        bool live = answers(b, feed, out, where.str() + " FEED");
        while (live && out.status == ServiceStatus::kBackpressure) {
          live = answers(b, drain, out, where.str() + " DRAIN");
          if (live && out.drain.reports.empty()) {
            stalls.push_back(where.str());
            live = false;
          } else if (live) {
            live = answers(b, feed, out, where.str() + " FEED");
          }
        }
        if (live && answers(b, drain, out, where.str() + " DRAIN"))
          answers(b, close, out, where.str() + " CLOSE");
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_TRUE(stalls.empty())
      << stalls.size() << " restored sessions stalled; first: "
      << stalls.front();
  EXPECT_TRUE(escapes.empty())
      << escapes.size() << " of " << mutants << " mutants escaped; first: "
      << escapes.front();
}

// The v6 blob of a fixed session cut inside a chunk payload, and the spill
// file the cold tier writes for it, pinned by size and CRC32C: a codec
// change that moves any byte of either format fails here.
TEST(Snapshot, GoldenBlobAndSpillFileBytes) {
  const CutStream s = cut_after("acquire 0 40\nfork 0 1\nwrite 1 10\n"
                                "read 1 11\nhalt 1\nwrite 0 10\nfork 0 2\n"
                                "write 2 12\nhalt 2\njoin 0 2\njoin 0 1\n"
                                "release 0 40\nhalt 0\n", 6);
  DetectionService service;
  const std::uint32_t id = open_session(service);
  ASSERT_EQ(feed_bytes(service, id, s.wire.substr(0, s.cut + 9 + 1)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  EXPECT_EQ(blob.size(), 367u);
  EXPECT_EQ(crc32c(blob.data(), blob.size()), 0x70dba390u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("race2d-golden-spill-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    SpillTier tier(dir.string(), 1u << 20);
    ASSERT_TRUE(tier.store(7, blob).stored);
  }
  std::ifstream in(dir / "sess-7.spill", std::ios::binary);
  std::ostringstream file;
  file << in.rdbuf();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(file.str().size(), 251u);
  EXPECT_EQ(crc32c(file.str().data(), file.str().size()), 0x44704d2fu);
}

TEST(Snapshot, PoisonedSessionsRefuseToSnapshot) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  ASSERT_EQ(feed_bytes(service, id, "this is not R2DT data").status,
            ServiceStatus::kDecodeReject);
  Request snap;
  snap.verb = Verb::kSnapshot;
  snap.session = id;
  const Response rsp = service.handle(snap);
  EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
  EXPECT_EQ(rsp.message.substr(0, 4), "K008") << rsp.message;
}

TEST(Snapshot, ServiceRejectsGarbageRestoreBlobs) {
  DetectionService service;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = "definitely not a snapshot";
  const Response rsp = service.handle(restore);
  EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
  EXPECT_TRUE(has_k_code(rsp.message)) << rsp.message;
  EXPECT_EQ(service.live_sessions(), 0u);
}

// A tightened per-session quota travels with the snapshot: the restored
// session keeps the original OPEN's cap instead of silently widening to the
// target service's default — and a target with a SMALLER per-session limit
// clamps the recorded quota down to it.
TEST(Snapshot, PerSessionQuotaSurvivesRestore) {
  // One task touching thousands of locations: the snapshotted prefix is
  // tiny, but feeding the remainder inflates shadow memory far past the
  // tightened quota.
  std::string text = "fork 0 1\n";
  for (int loc = 0; loc < 4000; ++loc)
    text += "write 1 " + std::to_string(loc) + "\n";
  text += "halt 1\njoin 0 1\nhalt 0\n";
  const std::string wire = trace_to_binary(parse_trace_text(text));

  DetectionService a;
  Request open;
  open.verb = Verb::kOpen;
  open.open.quota_bytes = 16384;  // far below the 64 MiB service default
  const Response opened = a.handle(open);
  ASSERT_EQ(opened.status, ServiceStatus::kOk);
  constexpr std::size_t kCut = 64;
  ASSERT_EQ(feed_bytes(a, opened.session, wire.substr(0, kCut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, opened.session);

  const auto feed_rest_until_reject = [&wire](DetectionService& service,
                                              std::uint32_t id) {
    Response last;
    for (std::size_t off = kCut;
         off < wire.size() && last.status == ServiceStatus::kOk; off += 4096)
      last = feed_bytes(service, id, wire.substr(off, 4096));
    return last;
  };

  DetectionService b;  // default limits: quota must NOT widen to them
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = blob;
  Response restored = b.handle(restore);
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  Response last = feed_rest_until_reject(b, restored.session);
  EXPECT_EQ(last.status, ServiceStatus::kQuotaEvicted) << last.message;
  EXPECT_NE(last.message.find("16384"), std::string::npos) << last.message;

  ServiceLimits tight;
  tight.session_quota_bytes = 8192;  // below the blob's recorded quota
  DetectionService c(tight);
  restored = c.handle(restore);
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  last = feed_rest_until_reject(c, restored.session);
  EXPECT_EQ(last.status, ServiceStatus::kQuotaEvicted) << last.message;
  EXPECT_NE(last.message.find("8192"), std::string::npos) << last.message;
}

// A blob's fed-byte count must equal what its decoder section was fed: the
// bytes it decoded plus the partial frame it holds. A client resumes its
// stream at that count, so a resealed blob whose count is off by one either
// way is refused with K007 rather than restored into a stream the next FEED
// or the CLOSE would break.
TEST(Snapshot, FedBytesMustMatchTheDecoder) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(racy_trace());
  const std::size_t cut = wire.size() / 2;  // inside the one chunk
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  ASSERT_EQ(blob.substr(16, 8), le64(cut));
  ASSERT_NE(restore_session(blob).session, nullptr);
  for (const std::uint64_t forged : {cut - 1, cut + 1}) {
    const RestoreOutcome out =
        restore_session(splice(blob, 16, 8, le64(forged)));
    EXPECT_EQ(out.session, nullptr) << forged;
    EXPECT_EQ(out.error.substr(0, 4), "K007") << forged << ": " << out.error;
  }
}

TEST(Snapshot, FedBytesPeekMatchesWithoutFullRestore) {
  DetectionService service;
  const std::uint32_t id = open_session(service);
  const std::string wire = trace_to_binary(generated(42));
  const std::size_t cut = std::min<std::size_t>(200, wire.size());
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  std::uint64_t fed = 0;
  std::string error;
  ASSERT_TRUE(snapshot_fed_bytes(blob, fed, error)) << error;
  EXPECT_EQ(fed, cut);
  EXPECT_FALSE(snapshot_fed_bytes("junk", fed, error));
  EXPECT_TRUE(has_k_code(error)) << error;
}

}  // namespace
}  // namespace race2d
