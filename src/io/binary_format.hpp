// The versioned binary trace wire format ("R2DT", versions 1 and 2).
//
// Layout (all multi-byte integers little-endian):
//
//   file    := header frame* trailer
//   header  := magic[4] = "R2DT"  version:u8 = 1|2  flags:u8 = 0  reserved:u16 = 0
//   frame   := 'C'  payload_len:u32  crc:u32  payload[payload_len]
//            | 'Z'  payload_len:u32  crc:u32  payload[payload_len]   (v2 only)
//   trailer := 'E'  total_events:u64  crc:u32      (crc over the count bytes)
//
// A 'C' frame's payload is one CHUNK: a varint event count followed by that
// many events. Events are delta-encoded — opcode byte, then zigzag varints
// of the actor / other / location deltas against the previous event's fields
// (acquire/release sync-object ids delta against their OWN register, so
// interleaved data accesses keep their encoding) — and
// the delta state RESETS at every chunk boundary, so a corrupt chunk is
// localized: its CRC32C rejects it without poisoning neighbours, and a
// future salvage pass could resume at the next frame marker. The trailer's
// total event count cross-checks reassembly end-to-end.
//
// Version 2 adds the 'Z' COMPRESSED chunk (src/compress/chunk_codec.hpp):
// run/grammar compression over the same per-event delta byte strings. A 'Z'
// payload is a varint event count (post-expansion) followed by items:
//
//   item := 0x00  varint n     event[n]                 literal events
//         | 0x01  varint reps  varint m  event[m]       define + run: the m
//                 template events repeat `reps` times (reps >= 2); the
//                 template's delta BYTES enter the per-chunk dictionary
//                 (ids in definition order)
//         | 0x02  varint id    varint reps              run of dictionary
//                 template `id`, reps >= 1
//
// Delta registers persist ACROSS items within a chunk (a template's bytes
// replay against the running registers, so stride runs re-expand exactly)
// and still reset at chunk boundaries. A v2 stream may mix 'C' and 'Z'
// frames — the writer emits 'Z' only when it is smaller. Version 1 streams
// are untouched: byte-identical decode, and a 'Z' marker in them is B009.
//
// Every way an input can be malformed has a STABLE DecodeCode (B001–B018,
// same never-renumber contract as the lint codes in verify/diagnostics.hpp)
// carried by TraceDecodeError together with the absolute byte offset of the
// offending datum — the codec twin of TraceParseError's line number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/assert.hpp"

namespace race2d {

inline constexpr char kBinaryTraceMagic[4] = {'R', '2', 'D', 'T'};
inline constexpr std::uint8_t kBinaryTraceVersion = 1;
/// Header version byte of streams that MAY carry 'Z' compressed chunks.
inline constexpr std::uint8_t kBinaryTraceVersionCompressed = 2;
inline constexpr std::size_t kBinaryHeaderBytes = 8;

/// Frame markers. Distinct from the magic's first byte so a reader that lost
/// sync fails fast with kBadFrameMarker instead of misparsing.
inline constexpr std::uint8_t kChunkMarker = 'C';
inline constexpr std::uint8_t kTrailerMarker = 'E';
/// Compressed chunk marker; legal only in version-2 streams.
inline constexpr std::uint8_t kCompressedChunkMarker = 'Z';

/// Upper bound on a chunk payload the reader will buffer. Guards the
/// decoder's allocations against a corrupt or hostile length field; the
/// writer's default chunks are three orders of magnitude smaller.
inline constexpr std::uint32_t kMaxChunkPayload = 1u << 26;  // 64 MiB

/// Compressed-chunk item tags (the 'Z' payload grammar above).
inline constexpr std::uint8_t kItemLiteral = 0x00;
inline constexpr std::uint8_t kItemDefineRun = 0x01;
inline constexpr std::uint8_t kItemDictRun = 0x02;

/// Expansion cap for one 'Z' chunk: a hostile declared count times run
/// repetitions is a decompression bomb; the decoder rejects any declared
/// count above this with B018 before allocating anything. The writer's
/// 64 KiB chunks sit three orders of magnitude below it.
inline constexpr std::uint64_t kMaxCompressedChunkEvents = 1u << 22;

/// Per-chunk dictionary cap: the decoder rejects the 4097th template with
/// B015 and the writer stops defining new ones past the cap (falls back to
/// literals), so both sides agree on every template id.
inline constexpr std::size_t kMaxChunkTemplates = 4096;

/// Whether BinaryTraceWriter compresses chunks. kRuns buys the v2 'Z'
/// encoding (header version byte 2); kNone writes version-1 streams
/// byte-identical to every earlier release.
enum class CompressionMode : std::uint8_t {
  kNone = 0,
  kRuns = 1,
};

/// Shim: perfbench/src/ (traced.cpp, workload.cpp) is its only user, and
/// ROADMAP item 1 deletes it. No decoder writes one; runs are expanded.
struct DecodedRun {
  std::size_t first = 0;
  std::uint32_t len = 0;
  std::uint64_t extra = 0;
};

/// Stable decode error codes. The enumerator may move; the code STRING
/// (decode_code_id) never changes once shipped — docs/API.md lists them all.
enum class DecodeCode : std::uint8_t {
  kBadMagic,             ///< B001: first four bytes are not "R2DT"
  kUnsupportedVersion,   ///< B002: version byte this reader cannot decode
  kBadHeader,            ///< B003: nonzero flags/reserved header bytes
  kTruncatedInput,       ///< B004: input ends inside the header or a frame
  kChunkCrcMismatch,     ///< B005: chunk payload fails its CRC32C
  kMalformedVarint,      ///< B006: overlong varint, or one cut off by the
                         ///<       end of its chunk payload
  kUnknownOpcode,        ///< B007: event opcode outside the TraceOp range
  kTaskIdOutOfRange,     ///< B008: decoded task id >= the invalid sentinel
  kBadFrameMarker,       ///< B009: frame starts with neither 'C' nor 'E'
  kEventCountMismatch,   ///< B010: chunk/trailer event count disagrees with
                         ///<       the events actually present
  kChunkTooLarge,        ///< B011: payload length exceeds kMaxChunkPayload
  kTrailingBytes,        ///< B012: bytes after the trailer frame
  kMissingTrailer,       ///< B013: input ends without a trailer frame
  kTrailerCrcMismatch,   ///< B014: trailer count fails its CRC32C
  kBadCompressedItem,    ///< B015: unknown item tag, empty literal/template,
                         ///<       or a template past the dictionary cap
  kBadRunCount,          ///< B016: zero-repetition run, or an item expanding
                         ///<       past the chunk's declared event count
  kBadTemplateRef,       ///< B017: run names an undefined dictionary template
  kChunkTooManyEvents,   ///< B018: declared event count exceeds
                         ///<       kMaxCompressedChunkEvents
};

/// The stable code string, e.g. "B005" — never reuse or renumber.
const char* decode_code_id(DecodeCode code);

/// Short kebab-case slug, e.g. "chunk-crc-mismatch".
const char* decode_code_slug(DecodeCode code);

/// Rejection of a binary trace input: stable code + absolute byte offset of
/// the offending datum (for kTruncatedInput / kMissingTrailer, the input
/// size — where the missing bytes should have started).
class TraceDecodeError : public ContractViolation {
 public:
  TraceDecodeError(DecodeCode code, std::uint64_t byte_offset,
                   const std::string& what);
  DecodeCode code() const { return code_; }
  std::uint64_t byte_offset() const { return byte_offset_; }

 private:
  DecodeCode code_;
  std::uint64_t byte_offset_;
};

}  // namespace race2d
