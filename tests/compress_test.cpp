// The compress/ subsystem: version-2 run-compressed chunks, the blob codec
// under the cold tier, and the spill tier itself.
//
//  * v2 round trip: every trace shape expands from its run-compressed
//    encoding to the identical event list, and re-encoding the expansion as
//    version 1 reproduces the version-1 bytes exactly (v2 is a pure
//    re-framing, never lossy);
//  * the version-1 encoding is byte-untouched by this PR (regression pin);
//  * rejection taxonomy: targeted structural mutants trigger each new code
//    B015–B018 (with the chunk CRC re-computed, so the CRC pass cannot mask
//    the structural check), and every truncation prefix and single-bit flip
//    of a valid v2 stream is rejected;
//  * a session fed the version-2 bytes gives the version-1 session's
//    reports, and charges the decoder's run template to its memory quota;
//  * blob codec: round trip on adversarial byte shapes, nullopt on any
//    corruption;
//  * spill tier: store/load round trip, LRU budget eviction, K009/K010.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compress/blob_codec.hpp"
#include "compress/chunk_codec.hpp"
#include "compress/spill_tier.hpp"
#include "core/detector.hpp"
#include "core/replay.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "io/varint.hpp"
#include "runtime/trace.hpp"
#include "service/session.hpp"
#include "support/ids.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {
namespace {

Trace repetitive_trace(std::size_t reps = 500) {
  // One forked child hammering its accumulator — the run compressor's
  // target shape. Valid Figure-9 serial order.
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1});
  t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x1000});
  for (std::size_t i = 0; i < reps; ++i) {
    t.push_back({TraceOp::kRead, 1, kInvalidTask, 0x1000});
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x1000});
  }
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  return t;
}

Trace racy_repetitive_trace(std::size_t reps = 200) {
  // Parent and un-joined child hammer the SAME location: races fire inside
  // the runs, and the expanded runs must yield the exact report stream.
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1});
  for (std::size_t i = 0; i < reps; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x2000});
  t.push_back({TraceOp::kHalt, 1});
  // The parent resumes WITHOUT joining: its accesses race with the child's.
  for (std::size_t i = 0; i < reps; ++i)
    t.push_back({TraceOp::kWrite, 0, kInvalidTask, 0x2000});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  return t;
}

/// Task 0 writes `pairs` pairs of equal strides, each pair with a new
/// stride of 64 or more (a 2-byte delta): every pair is a run of a template
/// the chunk has not defined yet, and cheaper as one than as literals.
Trace stride_pairs_trace(std::size_t pairs) {
  Trace t;
  Loc loc = 0;
  for (std::size_t k = 0; k < pairs; ++k)
    for (int i = 0; i < 2; ++i)
      t.push_back({TraceOp::kWrite, 0, kInvalidTask, loc += 64 + k});
  t.push_back({TraceOp::kHalt, 0});
  return t;
}

std::string v1_bytes(const Trace& t) { return trace_to_binary(t); }

std::string v2_bytes(const Trace& t, std::size_t chunk_payload = 64 * 1024) {
  BinaryWriteOptions options;
  options.compression = CompressionMode::kRuns;
  options.chunk_payload_bytes = chunk_payload;
  return trace_to_binary(t, options);
}

DecodeCode decode_code_of(const std::string& bytes) {
  try {
    (void)trace_from_binary(bytes);
  } catch (const TraceDecodeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "input decoded without error";
  return DecodeCode::kBadMagic;
}

void expect_pure_reframing(const Trace& trace, std::size_t chunk_payload) {
  const std::string v1 = v1_bytes(trace);
  const std::string v2 = v2_bytes(trace, chunk_payload);
  const Trace expanded = trace_from_binary(v2);
  ASSERT_EQ(expanded, trace);
  EXPECT_EQ(trace_to_binary(expanded), v1);
}

TEST(CompressedRoundTrip, RepetitiveGeneratedAndEdgeShapes) {
  expect_pure_reframing(Trace{}, 64 * 1024);
  expect_pure_reframing(repetitive_trace(), 64 * 1024);
  expect_pure_reframing(racy_repetitive_trace(), 64 * 1024);
  for (const std::uint64_t seed : {7ull, 99ull, 12345ull, 0xDEADBEEFull})
    expect_pure_reframing(generate_trace(FuzzPlan::from_seed(seed)).trace,
                          64 * 1024);
  // Tiny chunks: runs split across many chunk boundaries (registers and the
  // template dictionary reset at each), every boundary a fresh state.
  expect_pure_reframing(repetitive_trace(), 64);
  expect_pure_reframing(repetitive_trace(), 1);
  // One chunk that wants one more template than its dictionary holds.
  expect_pure_reframing(stride_pairs_trace(kMaxChunkTemplates), 64 * 1024);
  expect_pure_reframing(stride_pairs_trace(kMaxChunkTemplates + 1), 64 * 1024);
}

TEST(CompressedRoundTrip, CompressesTheRepetitiveWorkload) {
  const Trace t = repetitive_trace(5000);
  const std::string v1 = v1_bytes(t);
  const std::string v2 = v2_bytes(t);
  // The acceptance floor is 2x; this shape folds far better.
  EXPECT_GE(v1.size(), 2 * v2.size())
      << "v1=" << v1.size() << " v2=" << v2.size();
}

TEST(CompressedRoundTrip, Version1BytesAreUntouched) {
  // Regression pin: the default (kNone) encoding of a fixed trace is
  // byte-identical to what every earlier release wrote — header version 1,
  // 'C' chunks only, no 'Z' anywhere.
  const std::string bytes = v1_bytes(repetitive_trace(8));
  EXPECT_EQ(bytes[4], 1);    // version byte
  EXPECT_EQ(bytes[8], 'C');  // first frame is a plain chunk
  EXPECT_EQ(trace_from_binary(bytes), repetitive_trace(8));
}

TEST(CompressedRoundTrip, MixedChunksAreLegal) {
  // A v2 stream may interleave 'C' and 'Z' chunks: the writer only emits
  // 'Z' when it is smaller. An incompressible chunk (every event distinct)
  // stays 'C' even under kRuns.
  Trace t;
  std::mt19937_64 rng(42);
  t.push_back({TraceOp::kFork, 0, 1});
  for (int i = 0; i < 200; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, rng()});
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  expect_pure_reframing(t, 256);
}

TEST(RunReplay, BitIdenticalReports) {
  for (const Trace& t : {repetitive_trace(500), racy_repetitive_trace(100),
                         generate_trace(FuzzPlan::from_seed(77)).trace}) {
    DetectionSession plain(ReportPolicy::kAll, 1u << 20);
    DetectionSession fast(ReportPolicy::kAll, 1u << 20);
    const auto a = plain.feed(v1_bytes(t));
    const auto b = fast.feed(v2_bytes(t));
    ASSERT_EQ(a.status, ServiceStatus::kOk);
    ASSERT_EQ(b.status, ServiceStatus::kOk);
    EXPECT_EQ(a.events, b.events);
    bool more = false;
    EXPECT_EQ(plain.drain(0, more), fast.drain(0, more));
    EXPECT_EQ(plain.events_total(), fast.events_total());
  }
}

// A session holds no per-frame event buffer: its footprint is exactly the
// decoder's buffers, the lint gate, the detector and the pending reports.
// Rebuilding those pieces outside the session (same decoder, same replay)
// gives memory_bytes() to the byte on a frame of many short stationary
// runs, whose repetitions the decoder passes on from its template buffer.
TEST(RunReplay, SessionMemoryIsTheSumOfItsParts) {
  // Scattered locations, each written four times: a literal write, then a
  // stationary run of three. The scattered deltas keep the encoder from
  // folding whole groups into one longer template. No task races another,
  // so no report is pending.
  Trace t;
  std::mt19937_64 rng(7);
  t.push_back({TraceOp::kFork, 0, 1});
  for (int n = 0; n < 2000; ++n) {
    const Loc loc = rng() >> 24;
    for (int i = 0; i < 4; ++i)
      t.push_back({TraceOp::kWrite, 1, kInvalidTask, loc});
  }
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  const std::string v2 = v2_bytes(t, 1 << 20);
  // A 'Z' payload without runs is never smaller than its 'C' twin. Here a
  // location's last three writes become a 3-byte dictionary run in place
  // of 9 bytes of events, less the 2-byte literal item its first write
  // then needs: 4 bytes saved per location that carries a run.
  ASSERT_LE(v2.size() + 3 * 2000, v1_bytes(t).size());

  BinaryTraceDecoder decoder;
  std::vector<TraceEvent> events;
  decoder.feed(v2.data(), v2.size(), events);
  ASSERT_EQ(events, t);
  TraceLintStream lint(kGateLintOptions);
  OnlineRaceDetector detector;
  detector.on_root();
  for (const TraceEvent& e : events) {
    ASSERT_TRUE(lint.feed(e));
    apply_event(detector, e);
  }

  DetectionSession session(ReportPolicy::kAll, 1u << 20);
  ASSERT_EQ(session.feed(v2).status, ServiceStatus::kOk);
  EXPECT_EQ(session.events_total(), t.size());
  ASSERT_EQ(session.pending_reports(), 0u);
  EXPECT_EQ(session.memory_bytes(), decoder.buffered_bytes() +
                                        lint.memory_bytes() +
                                        detector.footprint().total());
}

// A 1 MiB chunk of accesses to a few locations decodes to about 350 000
// events. Streaming them straight into the detector, the session grows by
// far less than one TraceEvent per event.
TEST(RunReplay, SessionBuffersNoDecodedFrame) {
  Trace t = {{TraceOp::kFork, 0, 1}};
  for (std::size_t i = 0; i < (std::size_t{1} << 20) / 3; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, i % 16});
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  BinaryWriteOptions options;
  options.chunk_payload_bytes = std::size_t{2} << 20;
  const std::string v1 = trace_to_binary(t, options);
  // Header, one chunk frame of at least 1 MiB, trailer.
  std::size_t payload = 0;
  for (std::size_t i = 0; i < 4; ++i)
    payload |= std::size_t{static_cast<unsigned char>(v1[9 + i])} << (8 * i);
  ASSERT_GE(payload, std::size_t{1} << 20);
  ASSERT_EQ(kBinaryHeaderBytes + 9 + payload + 13, v1.size());

  DetectionSession session(ReportPolicy::kAll, 1u << 20);
  const std::size_t before = session.memory_bytes();
  ASSERT_EQ(session.feed(v1).status, ServiceStatus::kOk);
  EXPECT_EQ(session.events_total(), t.size());
  EXPECT_LT(session.memory_bytes() - before, t.size() * sizeof(TraceEvent));
}

// ---- rejection taxonomy ---------------------------------------------------

void append_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void append_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// Hand-frames one 'Z' chunk around `payload` (CRC freshly computed, so a
/// structural check — not the CRC pass — must do the rejecting) and seals
/// the stream with a trailer declaring `total_events`.
std::string v2_stream_with_payload(const std::string& payload,
                                   std::uint64_t total_events) {
  std::string s = "R2DT";
  s.push_back(2);
  s.append(3, '\0');
  s.push_back('Z');
  append_u32le(s, static_cast<std::uint32_t>(payload.size()));
  append_u32le(s, crc32c(payload.data(), payload.size()));
  s += payload;
  s.push_back('E');
  std::string count;
  append_u64le(count, total_events);
  s += count;
  append_u32le(s, crc32c(count.data(), count.size()));
  return s;
}

/// Delta bytes of a halt-by-task-0 event from reset registers: opcode then
/// zigzag(0) — the smallest legal template body.
std::string halt_event_bytes() {
  std::string e;
  e.push_back(static_cast<char>(TraceOp::kHalt));
  e.push_back(0);  // varint zigzag(actor 0 - prev 0)
  return e;
}

TEST(CompressedRejection, B015BadItemTag) {
  std::string payload;
  append_varint(payload, 1);     // one event
  payload.push_back('\x07');     // unknown item tag
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B015EmptyLiteral) {
  std::string payload;
  append_varint(payload, 1);
  payload.push_back('\x00');  // literal item
  append_varint(payload, 0);  // ...of zero events
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B015EmptyTemplate) {
  std::string payload;
  append_varint(payload, 4);
  payload.push_back('\x01');  // define+run
  append_varint(payload, 4);  // reps
  append_varint(payload, 0);  // m == 0
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 4)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B016DefineRunNeedsTwoReps) {
  std::string payload;
  append_varint(payload, 1);
  payload.push_back('\x01');
  append_varint(payload, 1);  // reps < 2: a run of one is a literal
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B016ZeroDictRun) {
  std::string payload;
  append_varint(payload, 3);
  payload.push_back('\x01');  // define template 0 with 2 reps
  append_varint(payload, 2);
  append_varint(payload, 1);
  payload += halt_event_bytes();
  payload.push_back('\x02');  // dict-run of it...
  append_varint(payload, 0);  // template id
  append_varint(payload, 0);  // ...zero times
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 3)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B016ExpansionPastDeclaredCount) {
  std::string payload;
  append_varint(payload, 3);  // declares 3 events...
  payload.push_back('\x01');
  append_varint(payload, 4);  // ...but the run expands to 4
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 3)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B017UndefinedTemplate) {
  std::string payload;
  append_varint(payload, 2);
  payload.push_back('\x02');  // dict-run of a template never defined
  append_varint(payload, 0);
  append_varint(payload, 2);
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 2)),
            DecodeCode::kBadTemplateRef);
}

TEST(CompressedRejection, B018DeclaredCountOverCap) {
  std::string payload;
  append_varint(payload, kMaxCompressedChunkEvents + 1ull);
  payload.push_back('\x00');
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kChunkTooManyEvents);
}

TEST(CompressedRejection, ZMarkerIllegalInVersion1) {
  // Take a valid v2 stream and flip the header version byte back to 1: the
  // first 'Z' marker must be refused (B009) before any payload is touched.
  std::string bytes = v2_bytes(repetitive_trace(100));
  ASSERT_EQ(bytes[4], 2);
  bytes[4] = 1;
  EXPECT_EQ(decode_code_of(bytes), DecodeCode::kBadFrameMarker);
}

TEST(CompressedRejection, EveryTruncationPrefixThrows) {
  const std::string bytes = v2_bytes(repetitive_trace(40), 128);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)trace_from_binary(bytes.substr(0, cut));
      ADD_FAILURE() << "truncation to " << cut << " bytes decoded";
    } catch (const TraceDecodeError&) {
    }
  }
}

TEST(CompressedRejection, EverySingleBitFlipThrows) {
  const std::string bytes = v2_bytes(repetitive_trace(40), 128);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^
                                     (1u << bit));
      try {
        (void)trace_from_binary(corrupt);
        ADD_FAILURE() << "bit " << bit << " of byte " << i << " decoded";
      } catch (const TraceDecodeError&) {
      }
    }
  }
}

// ---- blob codec -----------------------------------------------------------

TEST(BlobCodec, RoundTripsAdversarialShapes) {
  std::mt19937_64 rng(7);
  std::vector<std::string> shapes;
  shapes.emplace_back();                      // empty
  shapes.emplace_back(1, 'x');                // single byte
  shapes.emplace_back(100000, 'a');           // one giant run
  std::string random_bytes;
  for (int i = 0; i < 50000; ++i)
    random_bytes.push_back(static_cast<char>(rng() & 0xFF));
  shapes.push_back(random_bytes);             // incompressible
  std::string periodic;
  for (int i = 0; i < 20000; ++i) periodic += "abcdefg";
  shapes.push_back(periodic);                 // overlapping copies
  std::string mixed = random_bytes.substr(0, 1000);
  mixed += mixed + mixed + random_bytes.substr(1000, 500) + mixed;
  shapes.push_back(mixed);                    // long-distance repeats
  for (const std::string& raw : shapes) {
    const std::string z = blob_compress(raw);
    const std::optional<std::string> back = blob_decompress(z);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, raw);
  }
  // The run and periodic shapes must actually shrink.
  EXPECT_LT(blob_compress(shapes[2]).size(), shapes[2].size() / 4);
  EXPECT_LT(blob_compress(periodic).size(), periodic.size() / 4);
}

TEST(BlobCodec, RejectsCorruption) {
  std::string raw = "the quick brown fox jumps over the lazy dog ";
  for (int i = 0; i < 6; ++i) raw += raw;
  const std::string z = blob_compress(raw);
  EXPECT_FALSE(blob_decompress("").has_value());
  EXPECT_FALSE(blob_decompress("R2DX").has_value());
  EXPECT_FALSE(blob_decompress(z.substr(0, z.size() / 2)).has_value());
  for (std::size_t i = 0; i < z.size(); ++i) {
    std::string corrupt = z;
    corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^ 1);
    const std::optional<std::string> back = blob_decompress(corrupt);
    // A flip may land in a literal's bytes (still decodes, different
    // content) — but it must NEVER decode to the original claiming success
    // with different structure, and must never crash. Structural flips
    // (magic, version, sizes, distances) must return nullopt.
    if (back.has_value() && i >= 5) {
      EXPECT_EQ(back->size(), raw.size());
    } else if (i < 5) {
      EXPECT_FALSE(back.has_value()) << "header flip at byte " << i;
    }
  }
}

// ---- spill tier -----------------------------------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("race2d-spill-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

TEST(SpillTier, StoreLoadRoundTrip) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  std::string blob(5000, 'q');
  blob += "tail structure";
  const SpillTier::StoreResult stored = tier.store(7, blob);
  EXPECT_TRUE(stored.stored);
  EXPECT_TRUE(stored.dropped.empty());
  EXPECT_TRUE(tier.contains(7));
  EXPECT_EQ(tier.sessions(), 1u);
  EXPECT_GT(tier.bytes(), 0u);
  std::string error;
  const std::optional<std::string> back = tier.load(7, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, blob);
  EXPECT_FALSE(tier.contains(7));  // load always consumes
  EXPECT_EQ(tier.bytes(), 0u);
}

TEST(SpillTier, LruEvictionUnderBudget) {
  TempDir dir;
  std::mt19937_64 rng(3);
  std::string incompressible;
  for (int i = 0; i < 4000; ++i)
    incompressible.push_back(static_cast<char>(rng() & 0xFF));
  SpillTier tier(dir.path.string(), 3 * (incompressible.size() + 256));
  EXPECT_TRUE(tier.store(1, incompressible).stored);
  EXPECT_TRUE(tier.store(2, incompressible).stored);
  EXPECT_TRUE(tier.store(3, incompressible).stored);
  // The fourth spill pushes past the budget: session 1 (least recently
  // spilled) is dropped for real.
  const SpillTier::StoreResult fourth = tier.store(4, incompressible);
  EXPECT_TRUE(fourth.stored);
  ASSERT_EQ(fourth.dropped.size(), 1u);
  EXPECT_EQ(fourth.dropped[0], 1u);
  EXPECT_FALSE(tier.contains(1));
  EXPECT_TRUE(tier.contains(4));
  // A blob that alone exceeds the whole budget is refused outright.
  std::string huge;
  for (int i = 0; i < 40000; ++i)
    huge.push_back(static_cast<char>(rng() & 0xFF));
  SpillTier tiny(dir.path.string() + "/tiny", 100);
  std::filesystem::create_directories(dir.path / "tiny");
  EXPECT_FALSE(tiny.store(9, huge).stored);
}

TEST(SpillTier, K009StructuralDamage) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  ASSERT_TRUE(tier.store(5, std::string(1000, 'z')).stored);
  // Truncate the file below the header.
  const std::filesystem::path file = dir.path / "sess-5.spill";
  std::filesystem::resize_file(file, 10);
  std::string error;
  EXPECT_FALSE(tier.load(5, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;
  EXPECT_FALSE(tier.contains(5));  // consumed even on failure

  ASSERT_TRUE(tier.store(6, std::string(1000, 'z')).stored);
  {
    std::ofstream f(dir.path / "sess-6.spill",
                    std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);  // clobber the magic
  }
  error.clear();
  EXPECT_FALSE(tier.load(6, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;

  // Missing file (deleted behind the tier's back).
  ASSERT_TRUE(tier.store(8, std::string(100, 'y')).stored);
  std::filesystem::remove(dir.path / "sess-8.spill");
  error.clear();
  EXPECT_FALSE(tier.load(8, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;
}

TEST(SpillTier, K010PayloadDamage) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  ASSERT_TRUE(tier.store(11, std::string(2000, 'p')).stored);
  const std::filesystem::path file = dir.path / "sess-11.spill";
  // Flip one payload byte (past the 21-byte header): CRC catches it.
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    ASSERT_GT(size, 25);
    f.seekg(24);
    char c = 0;
    f.read(&c, 1);
    f.seekp(24);
    c = static_cast<char>(static_cast<unsigned char>(c) ^ 0x40);
    f.write(&c, 1);
  }
  std::string error;
  EXPECT_FALSE(tier.load(11, &error).has_value());
  EXPECT_NE(error.find("K010"), std::string::npos) << error;
}

}  // namespace
}  // namespace race2d
