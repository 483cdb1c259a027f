// The binary trace wire format: round-trip exactness, canonical encoding,
// streaming (push) decode equivalence under every byte-split, and the full
// rejection taxonomy — every stable DecodeCode B001–B014 triggered on
// purpose, every truncation prefix and every single-bit flip of a valid
// stream rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "io/delta_codec.hpp"
#include "io/text_reader.hpp"
#include "io/varint.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "support/assert.hpp"
#include "support/ids.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {
namespace {

Trace sample_trace() {
  // All nine opcodes, loc jumps both directions, a task-id delta that goes
  // negative (join names an older task), hex-significant locations.
  return Trace{
      {TraceOp::kRead, 0, kInvalidTask, 0x10},
      {TraceOp::kFinishBegin, 0, kInvalidTask, 0},
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kWrite, 1, kInvalidTask, 0xffffffffffffffffull},
      {TraceOp::kSync, 1, kInvalidTask, 0},
      {TraceOp::kRead, 1, kInvalidTask, 0x1},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kRetire, 0, kInvalidTask, 0x10},
      {TraceOp::kFinishEnd, 0, kInvalidTask, 0},
      {TraceOp::kHalt, 0, kInvalidTask, 0},
  };
}

Trace generated_trace(std::uint64_t seed) {
  return generate_trace(FuzzPlan::from_seed(seed)).trace;
}

Trace lock_trace() {
  // Acquire/release interleaved with data accesses: the sync-object ids
  // (including a high-bit semaphore id) delta against their own register,
  // so this shape exercises both registers crossing each other.
  const Loc sem = kSemaphoreBit | 0x2000;
  return Trace{
      {TraceOp::kAcquire, 0, kInvalidTask, 0x1000},
      {TraceOp::kWrite, 0, kInvalidTask, 0x10},
      {TraceOp::kRelease, 0, kInvalidTask, 0x1000},
      {TraceOp::kRelease, 0, kInvalidTask, sem},
      {TraceOp::kFork, 0, 1, 0},
      {TraceOp::kAcquire, 1, kInvalidTask, sem},
      {TraceOp::kRead, 1, kInvalidTask, 0x10},
      {TraceOp::kHalt, 1, kInvalidTask, 0},
      {TraceOp::kJoin, 0, 1, 0},
      {TraceOp::kHalt, 0, kInvalidTask, 0},
  };
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

/// A trace whose deltas need 3- to 10-byte varints (locations and sync
/// ids) and 1- to 5-byte ones (task ids), interleaved with 1–2-byte
/// events, over every opcode, with a short stationary run now and then so
/// a version-2 writer emits 'Z' chunks. Not lint-clean; the codec does not
/// care.
Trace wide_delta_trace() {
  const TaskId actors[] = {0, 1u << 13, (1u << 20) + 5, (1u << 27) + 3,
                           (1u << 31) + 7, kInvalidTask - 1};
  Trace t;
  Loc loc = 0;
  Loc sync = 0;
  for (std::size_t k = 0; k < 240; ++k) {
    // A zigzag value of exactly `bytes` varint bytes; odd ones are negative.
    const unsigned bytes = 3 + k % 8;
    const std::uint64_t zz = (std::uint64_t{1} << (7 * (bytes - 1))) + k % 2;
    const Loc delta = static_cast<Loc>(zigzag_decode(zz));
    const auto op = static_cast<TraceOp>(k % 11);
    const TaskId actor = actors[k % 6];
    const TaskId other = actors[(k / 6) % 6];
    TraceEvent e{op, actor, kInvalidTask, 0};
    switch (op) {
      case TraceOp::kFork:
      case TraceOp::kJoin:
        e.other = other;
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
      case TraceOp::kRetire:
        e.loc = loc += delta;
        break;
      case TraceOp::kAcquire:
      case TraceOp::kRelease:
        e.loc = sync += delta;
        break;
      default:
        break;
    }
    t.push_back(e);
    t.push_back({TraceOp::kRead, actor, kInvalidTask, loc += 3});
    if (k % 8 == 7)
      for (int r = 0; r < 4; ++r)
        t.push_back({TraceOp::kWrite, actor, kInvalidTask, loc});
  }
  return t;
}

/// Frames `payload` as one chunk behind a header: 'C' in a version-1
/// stream, 'Z' in a version-2 one, with its CRC sealed. No trailer: the
/// payload's own code fires first.
std::string sealed_chunk(char marker, const std::string& payload) {
  std::string out = trace_to_binary(Trace{}).substr(0, kBinaryHeaderBytes);
  if (marker == static_cast<char>(kCompressedChunkMarker))
    out[4] = static_cast<char>(kBinaryTraceVersionCompressed);
  out += marker;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    out += static_cast<char>((len >> (8 * i)) & 0xffu);
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i)
    out += static_cast<char>((crc >> (8 * i)) & 0xffu);
  return out + payload;
}

/// Absolute offset of a sealed_chunk payload's first byte.
constexpr std::uint64_t kPayloadAt = kBinaryHeaderBytes + 1 + 8;

/// The rejection `bytes` decode to; fails the test when they decode.
TraceDecodeError decode_error_of(const std::string& bytes) {
  try {
    (void)trace_from_binary(bytes);
  } catch (const TraceDecodeError& e) {
    return e;
  }
  ADD_FAILURE() << "input decoded without error";
  return TraceDecodeError(DecodeCode::kBadMagic, 0, "");
}

TEST(Varint, CanonicalAndSignedMappings) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0x0123456789abcdefull, ~0ull}) {
    std::string buf;
    append_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_EQ(decode_varint(
                  reinterpret_cast<const unsigned char*>(buf.data()),
                  buf.size(), pos, back),
              VarintStatus::kOk);
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
  // Non-minimal encoding of 0 (two bytes) must be rejected, not normalized.
  const unsigned char overlong[] = {0x80, 0x00};
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_EQ(decode_varint(overlong, 2, pos, v), VarintStatus::kOverlong);
  for (const std::int64_t s : {0ll, -1ll, 1ll, -2ll, 1234567ll, -7654321ll}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(s)), s);
  }
}

TEST(BinaryRoundTrip, EmptyAllOpcodesAndGenerated) {
  for (const Trace& trace :
       {Trace{}, sample_trace(), generated_trace(11), generated_trace(42),
        generated_trace(99)}) {
    const std::string bytes = trace_to_binary(trace);
    EXPECT_EQ(trace_from_binary(bytes), trace);
    // Canonicity: re-encoding the decoded trace is byte-identical.
    EXPECT_EQ(trace_to_binary(trace_from_binary(bytes)), bytes);
  }
}

TEST(BinaryRoundTrip, ChunkBoundariesResetDeltaState) {
  const Trace trace = generated_trace(7);
  ASSERT_GT(trace.size(), 16u);
  // Tiny chunks force many frames; the per-chunk delta reset must not leak
  // state across boundaries in either direction.
  for (const std::size_t chunk : {1u, 7u, 16u, 64u, 1024u}) {
    BinaryWriteOptions options;
    options.chunk_payload_bytes = chunk;
    const std::string bytes = trace_to_binary(trace, options);
    EXPECT_EQ(trace_from_binary(bytes), trace) << "chunk=" << chunk;
  }
}

TEST(BinaryRoundTrip, TextAndBinaryReadersAgree) {
  const Trace trace = generated_trace(23);
  std::istringstream text(trace_to_text(trace));
  std::istringstream binary(trace_to_binary(trace));
  EXPECT_FALSE(sniff_binary_trace(text));
  EXPECT_TRUE(sniff_binary_trace(binary));
  TextTraceReader text_reader(text);
  BinaryTraceReader binary_reader(binary);
  EXPECT_EQ(text_reader.drain(), trace);
  EXPECT_EQ(binary_reader.drain(), trace);
}

TEST(PushDecoder, EveryByteSplitDecodesIdentically) {
  const Trace trace = generated_trace(5);
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 48;  // several chunks in a small stream
  const std::string bytes = trace_to_binary(trace, options);
  // One byte at a time: the pathological split of every frame.
  {
    BinaryTraceDecoder decoder;
    std::vector<TraceEvent> out;
    for (const char byte : bytes) decoder.feed(&byte, 1, out);
    decoder.finish();
    EXPECT_TRUE(decoder.done());
    EXPECT_EQ(Trace(out.begin(), out.end()), trace);
    EXPECT_EQ(decoder.bytes_consumed(), bytes.size());
  }
  // Every two-part split.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    BinaryTraceDecoder decoder;
    std::vector<TraceEvent> out;
    decoder.feed(bytes.data(), cut, out);
    decoder.feed(bytes.data() + cut, bytes.size() - cut, out);
    decoder.finish();
    ASSERT_EQ(Trace(out.begin(), out.end()), trace) << "cut=" << cut;
  }
}

TEST(PushDecoder, PoisonedDecoderKeepsRethrowing) {
  std::string bytes = trace_to_binary(sample_trace());
  bytes[12] = static_cast<char>(bytes[12] ^ 0x40);  // corrupt chunk interior
  BinaryTraceDecoder decoder;
  std::vector<TraceEvent> out;
  EXPECT_THROW(decoder.feed(bytes.data(), bytes.size(), out),
               TraceDecodeError);
  EXPECT_THROW(decoder.feed("x", 1, out), TraceDecodeError);
  EXPECT_THROW(decoder.finish(), TraceDecodeError);
}

/// Records what BinaryTraceDecoder::feed hands an EventSink, and stops
/// decoding after `stop_after` events.
class RecordingSink : public EventSink {
 public:
  explicit RecordingSink(std::size_t stop_after = ~std::size_t{0})
      : stop_after_(stop_after) {}

  bool accept(const TraceEvent& e) override {
    events.push_back(e);
    return events.size() < stop_after_;
  }

  std::vector<TraceEvent> events;

 private:
  std::size_t stop_after_;
};

/// One task writing one location over and over: a stationary run.
Trace stationary_trace(std::size_t writes) {
  Trace t = {{TraceOp::kFork, 0, 1, 0}};
  for (std::size_t i = 0; i < writes; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x40});
  t.push_back({TraceOp::kHalt, 1, kInvalidTask, 0});
  t.push_back({TraceOp::kJoin, 0, 1, 0});
  t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return t;
}

TEST(PushDecoder, EventSinkSeesWhatTheVectorOverloadDecodes) {
  for (const CompressionMode mode :
       {CompressionMode::kNone, CompressionMode::kRuns}) {
    for (const Trace& trace :
         {sample_trace(), generated_trace(5), stationary_trace(500)}) {
      BinaryWriteOptions options;
      options.chunk_payload_bytes = 48;
      options.compression = mode;
      const std::string bytes = trace_to_binary(trace, options);
      BinaryTraceDecoder decoder;
      RecordingSink sink;
      ASSERT_TRUE(decoder.feed(bytes.data(), bytes.size(), sink));
      decoder.finish();
      EXPECT_EQ(sink.events, trace);
      EXPECT_EQ(decoder.events_decoded(), trace.size());
    }
  }
  // The stationary run arrives event by event, passed on from the template
  // the decoder keeps for it, and the decoder charges that template.
  BinaryWriteOptions options;
  options.compression = CompressionMode::kRuns;
  const Trace trace = stationary_trace(500);
  const std::string z = trace_to_binary(trace, options);
  ASSERT_LT(4 * z.size(), trace_to_binary(trace).size())
      << "the 500 writes were not written as a run";
  BinaryTraceDecoder decoder;
  RecordingSink sink;
  ASSERT_TRUE(decoder.feed(z.data(), z.size(), sink));
  EXPECT_EQ(sink.events, trace);
  EXPECT_GE(decoder.buffered_bytes(), sizeof(TraceEvent));
}

TEST(PushDecoder, SinkStopsDecodingOnTheSpot) {
  const Trace trace = generated_trace(5);
  ASSERT_GT(trace.size(), 10u);
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 48;
  const std::string bytes = trace_to_binary(trace, options);
  BinaryTraceDecoder decoder;
  RecordingSink sink(/*stop_after=*/7);
  EXPECT_FALSE(decoder.feed(bytes.data(), bytes.size(), sink));
  EXPECT_EQ(sink.events, Trace(trace.begin(), trace.begin() + 7));
  // Stopped like a poisoned decoder: no further feeds, finish or export.
  EXPECT_THROW((void)decoder.feed("x", 1, sink), ContractViolation);
  EXPECT_THROW(decoder.finish(), ContractViolation);
  EXPECT_THROW((void)decoder.export_state(), ContractViolation);
  EXPECT_EQ(sink.events.size(), 7u);
}

// The SSE4.2 path must give the table's value for every length and
// alignment, on long buffers and when chained through a running crc.
TEST(Crc32c, HardwarePathMatchesTheTable) {
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);  // the standard check
  EXPECT_EQ(crc32c_portable("123456789", 9), 0xE3069283u);
  std::mt19937_64 rng(11);
  std::vector<unsigned char> buf(64 * 1024 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 256; ++len)
      ASSERT_EQ(crc32c(buf.data() + offset, len),
                crc32c_portable(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
  for (int round = 0; round < 4; ++round) {
    for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(crc32c(buf.data(), 64 * 1024),
              crc32c_portable(buf.data(), 64 * 1024));
    EXPECT_EQ(crc32c(buf.data() + 3, 64 * 1024, seed),
              crc32c_portable(buf.data() + 3, 64 * 1024, seed));
    // Chaining two pieces equals one pass over both.
    const std::uint32_t head = crc32c(buf.data(), 1000);
    EXPECT_EQ(crc32c(buf.data() + 1000, 5000, head),
              crc32c_portable(buf.data(), 6000));
  }
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_TRUE(crc32c_uses_hardware());
  }
#endif
}

TEST(DecodeRejection, EveryTruncationPrefixThrows) {
  const std::string bytes = trace_to_binary(sample_trace());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)trace_from_binary(bytes.substr(0, len)),
                 TraceDecodeError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(DecodeRejection, EverySingleBitFlipThrows) {
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 32;
  const std::string bytes = trace_to_binary(generated_trace(3), options);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^
                                     (1u << bit));
      EXPECT_THROW((void)trace_from_binary(corrupt), TraceDecodeError)
          << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(BinaryRoundTrip, LockMarkersRoundTripCanonically) {
  const Trace trace = lock_trace();
  const std::string bytes = trace_to_binary(trace);
  EXPECT_EQ(trace_from_binary(bytes), trace);
  EXPECT_EQ(trace_to_binary(trace_from_binary(bytes)), bytes);
  // Tiny chunks: the per-chunk reset must cover the sync-id register too.
  for (const std::size_t chunk : {1u, 4u, 16u}) {
    BinaryWriteOptions options;
    options.chunk_payload_bytes = chunk;
    EXPECT_EQ(trace_from_binary(trace_to_binary(trace, options)), trace)
        << "chunk=" << chunk;
  }
}

TEST(DecodeRejection, LockChunkTruncationAndBitFlipsThrow) {
  // The generic sweeps above run on lock-free traces; repeat both on a
  // stream whose chunks carry acquire/release so a corrupt sync-id varint
  // or opcode surfaces as a structured decode error, never a crash or a
  // silent mis-decode.
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 8;  // several lock-bearing chunks
  const std::string bytes = trace_to_binary(lock_trace(), options);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)trace_from_binary(bytes.substr(0, len)),
                 TraceDecodeError)
        << "prefix of " << len << " bytes decoded";
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^
                                     (1u << bit));
      EXPECT_THROW((void)trace_from_binary(corrupt), TraceDecodeError)
          << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(BinaryReader, StreamedLoadLintsLockDiscipline) {
  // A decodable stream whose lock discipline is broken fails the LINT
  // layer (L017), not the decode layer — mirroring the text reader.
  const Trace bad = {{TraceOp::kRelease, 0, kInvalidTask, 0x1000},
                     {TraceOp::kHalt, 0, kInvalidTask, 0}};
  std::istringstream is(trace_to_binary(bad));
  try {
    (void)load_trace_binary(is);
    FAIL() << "expected TraceLintError";
  } catch (const TraceLintError& e) {
    bool found = false;
    for (const LintDiagnostic& d : e.result().diagnostics)
      found = found || d.code == LintCode::kReleaseWithoutAcquire;
    EXPECT_TRUE(found) << to_string(e.result());
  }
}

TEST(DecodeRejection, StableCodesAndByteOffsets) {
  const std::string good = trace_to_binary(sample_trace());

  // B001 bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    try {
      (void)trace_from_binary(bad);
      FAIL() << "bad magic accepted";
    } catch (const TraceDecodeError& e) {
      EXPECT_EQ(e.code(), DecodeCode::kBadMagic);
      EXPECT_STREQ(decode_code_id(e.code()), "B001");
      EXPECT_EQ(e.byte_offset(), 0u);
      EXPECT_NE(std::string(e.what()).find("B001"), std::string::npos);
    }
  }
  // B002 unsupported version.
  {
    std::string bad = good;
    bad[4] = 9;
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kUnsupportedVersion);
  }
  // B003 nonzero reserved header bytes.
  {
    std::string bad = good;
    bad[6] = 1;
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kBadHeader);
  }
  // B004 truncated input (inside the header).
  EXPECT_EQ(decode_code_of(good.substr(0, 3)), DecodeCode::kTruncatedInput);
  // B005 chunk CRC mismatch (flip one payload byte).
  {
    std::string bad = good;
    bad[kBinaryHeaderBytes + 9 + 2] ^= 0x01;
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kChunkCrcMismatch);
  }
  // B009 bad frame marker.
  {
    std::string bad = good;
    bad[kBinaryHeaderBytes] = 'Z';
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kBadFrameMarker);
  }
  // B011 chunk payload over the cap. Hand-build the frame: marker + a
  // length beyond kMaxChunkPayload.
  {
    std::string bad = good.substr(0, kBinaryHeaderBytes);
    bad += static_cast<char>(kChunkMarker);
    const std::uint32_t len = kMaxChunkPayload + 1;
    for (int i = 0; i < 4; ++i)
      bad += static_cast<char>((len >> (8 * i)) & 0xffu);
    bad += std::string(4, '\0');  // crc
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kChunkTooLarge);
  }
  // B012 trailing bytes after the trailer.
  EXPECT_EQ(decode_code_of(good + "x"), DecodeCode::kTrailingBytes);
  // B013 missing trailer: a header-only stream ends between frames.
  EXPECT_EQ(decode_code_of(good.substr(0, kBinaryHeaderBytes)),
            DecodeCode::kMissingTrailer);
  // B014 trailer CRC mismatch: flip a byte of the trailer's count field.
  {
    std::string bad = good;
    bad[bad.size() - 5] ^= 0x01;  // inside the u64 count (crc is last 4)
    EXPECT_EQ(decode_code_of(bad), DecodeCode::kTrailerCrcMismatch);
  }
}

TEST(DecodeRejection, PayloadLevelCodes) {
  // Build chunks with crafted payloads and CORRECT CRCs so the payload
  // decoders themselves are reached: B006/B007/B008/B010.
  const std::string header = trace_to_binary(Trace{}).substr(
      0, kBinaryHeaderBytes);
  const auto frame = [&](const std::string& payload) {
    std::string out = header;
    out += static_cast<char>(kChunkMarker);
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
      out += static_cast<char>((len >> (8 * i)) & 0xffu);
    const std::uint32_t crc = crc32c(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
      out += static_cast<char>((crc >> (8 * i)) & 0xffu);
    out += payload;
    return out;  // deliberately no trailer: the code fires before it
  };

  // B006 malformed varint: count byte with its continuation bit set, then
  // nothing.
  EXPECT_EQ(decode_code_of(frame(std::string(1, '\x81'))),
            DecodeCode::kMalformedVarint);
  // B007 unknown opcode: count=1, opcode 0x7f.
  EXPECT_EQ(decode_code_of(frame("\x01\x7f")), DecodeCode::kUnknownOpcode);
  // B008 task id out of range: count=1, halt whose actor delta decodes to
  // kInvalidTask (zigzag(2*kInvalidTask) from prev=0).
  {
    std::string payload(1, '\x01');
    payload += static_cast<char>(static_cast<unsigned char>(TraceOp::kHalt));
    append_varint(payload,
                  zigzag_encode(static_cast<std::int64_t>(kInvalidTask)));
    EXPECT_EQ(decode_code_of(frame(payload)), DecodeCode::kTaskIdOutOfRange);
  }
  // B010 count/payload mismatch: count=2 but only one event present.
  {
    std::string payload(1, '\x02');
    payload += static_cast<char>(static_cast<unsigned char>(TraceOp::kSync));
    append_varint(payload, zigzag_encode(0));
    EXPECT_EQ(decode_code_of(frame(payload)),
              DecodeCode::kEventCountMismatch);
  }
  // B010 also fires on an empty chunk (the writer never emits one).
  EXPECT_EQ(decode_code_of(frame(std::string())),
            DecodeCode::kEventCountMismatch);
}

// The same payload-level forms as above, each placed at least 21 bytes
// (an opcode and two maximal varints) before the end of a long 'C' chunk
// and inside a long 'Z' literal item, where the decoder takes its
// unchecked fast path for every well-formed event around them. The checked
// path must still name each form's code and the offset of its datum.
TEST(DecodeRejection, PayloadLevelCodesInTheFastRegion) {
  // Filler events by task 0 with 1- and 2-byte varints.
  EventDeltaState filler_regs;
  std::string filler;
  for (int k = 0; k < 16; ++k) {
    const TraceEvent e =
        k % 2 == 0 ? TraceEvent{TraceOp::kRead, 0, kInvalidTask,
                                static_cast<Loc>(0x100 + 0x40 * k)}
                   : TraceEvent{TraceOp::kSync, 0, kInvalidTask, 0};
    append_event_delta(filler, e, filler_regs);
  }
  ASSERT_GE(filler.size(), 21u);
  const auto op_byte = [](TraceOp op) {
    return std::string(1, static_cast<char>(op));
  };
  const auto varint = [](std::uint64_t v) {
    std::string out;
    append_varint(out, v);
    return out;
  };
  const struct {
    const char* what;
    std::string bad;     // the malformed event, after 16 filler events
    std::size_t datum;   // offset of the rejected datum within `bad`
    DecodeCode code;
  } forms[] = {
      {"overlong 2-byte varint", op_byte(TraceOp::kHalt) + "\x80" + '\0', 1,
       DecodeCode::kMalformedVarint},
      {"varint past 10 bytes", op_byte(TraceOp::kHalt) + std::string(10, '\x80'),
       1, DecodeCode::kMalformedVarint},
      {"unknown opcode", "\x7f" + varint(0), 0, DecodeCode::kUnknownOpcode},
      {"actor below zero", op_byte(TraceOp::kHalt) + varint(zigzag_encode(-1)),
       1, DecodeCode::kTaskIdOutOfRange},
      {"actor at the invalid id",
       op_byte(TraceOp::kHalt) +
           varint(zigzag_encode(static_cast<std::int64_t>(kInvalidTask))),
       1, DecodeCode::kTaskIdOutOfRange},
      {"fork child below zero",
       op_byte(TraceOp::kFork) + varint(0) + varint(zigzag_encode(-1)), 2,
       DecodeCode::kTaskIdOutOfRange},
  };
  for (const auto& f : forms) {
    const std::string events = filler + f.bad + filler;
    const std::uint64_t bad_at = 1 + filler.size() + f.datum;  // count = 33
    const TraceDecodeError c =
        decode_error_of(sealed_chunk('C', varint(33) + events));
    EXPECT_EQ(c.code(), f.code) << "'C' " << f.what;
    EXPECT_EQ(c.byte_offset(), kPayloadAt + bad_at) << "'C' " << f.what;
    // 'Z': count 33, then one literal item (tag, n = 33) holding them.
    const TraceDecodeError z = decode_error_of(sealed_chunk(
        'Z', varint(33) + std::string(1, static_cast<char>(kItemLiteral)) +
                 varint(33) + events));
    EXPECT_EQ(z.code(), f.code) << "'Z' " << f.what;
    EXPECT_EQ(z.byte_offset(), kPayloadAt + 2 + bad_at) << "'Z' " << f.what;
  }

  // B010, count below the events present: decoding stops in the fast
  // region and the leftover bytes start where the 17th event does.
  const std::string two = filler + filler;
  const TraceDecodeError leftover =
      decode_error_of(sealed_chunk('C', varint(16) + two));
  EXPECT_EQ(leftover.code(), DecodeCode::kEventCountMismatch);
  EXPECT_EQ(leftover.byte_offset(), kPayloadAt + 1 + filler.size());
  // B010, count above the events present: the fast region runs out first,
  // and the payload ends where the 33rd event should start — for a 'C'
  // chunk and for a 'Z' literal item alike.
  const TraceDecodeError short_c =
      decode_error_of(sealed_chunk('C', varint(33) + two));
  EXPECT_EQ(short_c.code(), DecodeCode::kEventCountMismatch);
  EXPECT_EQ(short_c.byte_offset(), kPayloadAt + 1 + two.size());
  const TraceDecodeError short_z = decode_error_of(sealed_chunk(
      'Z', varint(33) + std::string(1, static_cast<char>(kItemLiteral)) +
               varint(33) + two));
  EXPECT_EQ(short_z.code(), DecodeCode::kEventCountMismatch);
  EXPECT_EQ(short_z.byte_offset(), kPayloadAt + 3 + two.size());
}

// Every cut of a long payload, re-sealed and fed one byte at a time so the
// payload sits in an exactly sized buffer: the decoder must name the cut —
// B010 at an event boundary, B006 inside an event — and never read past
// the payload, which the sanitizer build would report. Wide varints at the
// cut are what a fast path without its 21-byte guard would run past.
TEST(DecodeRejection, EveryPayloadCutIsNamedWithoutOverreading) {
  const Trace trace = wide_delta_trace();
  constexpr std::size_t kEvents = 40;
  EventDeltaState regs;
  std::string events;
  std::vector<std::size_t> boundaries = {0};
  for (std::size_t k = 0; k < kEvents; ++k) {
    append_event_delta(events, trace[k], regs);
    boundaries.push_back(events.size());
  }
  std::string count;
  append_varint(count, kEvents);
  const std::string literal =
      count + std::string(1, static_cast<char>(kItemLiteral)) + count;
  for (std::size_t cut = 0; cut < events.size(); ++cut) {
    const bool boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    for (const char marker : {'C', 'Z'}) {
      const std::string head = marker == 'C' ? count : literal;
      const std::string bytes =
          sealed_chunk(marker, head + events.substr(0, cut));
      BinaryTraceDecoder decoder;
      Trace out;
      try {
        for (const char byte : bytes) decoder.feed(&byte, 1, out);
        ADD_FAILURE() << marker << " cut " << cut << " decoded";
      } catch (const TraceDecodeError& e) {
        EXPECT_EQ(e.code(), boundary ? DecodeCode::kEventCountMismatch
                                     : DecodeCode::kMalformedVarint)
            << marker << " cut " << cut;
        EXPECT_LE(e.byte_offset(), kPayloadAt + head.size() + cut)
            << marker << " cut " << cut;
      }
    }
  }
}

/// Counts the 'Z' frames of a well-formed stream by walking its frame
/// headers.
std::size_t compressed_frames(const std::string& wire) {
  std::size_t frames = 0;
  std::size_t at = kBinaryHeaderBytes;
  while (static_cast<unsigned char>(wire.at(at)) != kTrailerMarker) {
    if (static_cast<unsigned char>(wire[at]) == kCompressedChunkMarker)
      ++frames;
    std::uint32_t len = 0;
    for (std::size_t i = 4; i-- > 0;)
      len = len << 8 | static_cast<unsigned char>(wire.at(at + 1 + i));
    at += 9 + len;
  }
  return frames;
}

// Wide deltas at every chunk size from 1 to 64 bytes: the point where the
// decoder leaves its fast path (21 bytes before a payload's end) falls at
// every event position, and every varint length meets it. Each stream is
// also fed one byte at a time, so every payload is decoded from an exactly
// sized buffer and a sanitizer build catches any read past its end.
TEST(BinaryRoundTrip, WideDeltasAtEveryChunkSize) {
  const Trace trace = wide_delta_trace();
  std::size_t z_frames = 0;
  for (const CompressionMode mode : {CompressionMode::kNone,
                                     CompressionMode::kRuns}) {
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      BinaryWriteOptions options;
      options.chunk_payload_bytes = chunk;
      options.compression = mode;
      const std::string wire = trace_to_binary(trace, options);
      EXPECT_EQ(trace_from_binary(wire), trace) << "chunk " << chunk;
      z_frames += compressed_frames(wire);

      BinaryTraceDecoder decoder;
      Trace dribbled;
      for (const char byte : wire) decoder.feed(&byte, 1, dribbled);
      decoder.finish();
      EXPECT_EQ(dribbled, trace) << "byte-at-a-time, chunk " << chunk;
    }
  }
  EXPECT_GT(z_frames, 0u) << "the version-2 streams carry no 'Z' chunk";
}

TEST(BinaryReader, StreamedLoadRunsTheLinter) {
  // load_trace_binary mirrors load_trace_text: syntactically fine but
  // structurally truncated input throws TraceLintError, not DecodeError.
  const Trace unfinished{{TraceOp::kFork, 0, 1, 0}};
  std::istringstream is(trace_to_binary(unfinished));
  EXPECT_THROW((void)load_trace_binary(is), TraceLintError);
}

TEST(BinaryWriter, StreamingChunksAndCounters) {
  const Trace trace = generated_trace(77);
  std::ostringstream os;
  BinaryWriteOptions options;
  options.chunk_payload_bytes = 128;
  BinaryTraceWriter writer(os, options);
  for (const TraceEvent& e : trace) writer.add(e);
  writer.finish();
  EXPECT_EQ(writer.events_written(), trace.size());
  const std::string bytes = os.str();
  EXPECT_EQ(writer.bytes_written(), bytes.size());
  EXPECT_EQ(trace_from_binary(bytes), trace);
  // Incremental emission equals the batch encoding under equal options.
  EXPECT_EQ(bytes, trace_to_binary(trace, options));
}

}  // namespace
}  // namespace race2d
