// The detection service's length-prefixed request/response protocol.
//
// Transport framing (pipe, unix socket — any reliable byte stream):
//
//   frame := len:u32le  payload[len]          (len <= kMaxFrameBytes)
//
// Request payload:
//
//   verb:u8  session:u32le  body
//     OPEN  body := policy:u8 (0 all / 1 first-only)  quota:u64le (0 = default)
//                   [engine:u8 (0 dsu / 1 depa)] — optional trailing byte,
//                   validated (a value above 1 is a bad frame) and then
//                   ignored: every session runs the DSU detector, whose
//                   reports equal DePa's bit for bit
//     FEED  body := raw binary-trace wire bytes (io/binary_format.hpp)
//     DRAIN body := max_reports:u32le (0 = all pending)
//     CLOSE body := empty
//     STATS body := empty
//     SNAPSHOT body := empty (serialize session `session` to a blob)
//     RESTORE  body := snapshot blob bytes (service/snapshot.hpp); the
//                      session field is ignored — the restored session gets
//                      a FRESH id (the response header carries it), which is
//                      how a snapshot migrates between workers
//
// Response payload:
//
//   verb:u8 (echo)  status:u8  session:u32le  body
//     status != OK  body := utf-8 error message (leads with the stable
//                           lint/decode code when one caused the rejection)
//     OK+OPEN   body := empty (the session id is the header field)
//     OK+FEED   body := events:u64le  pending_reports:u32le  backpressure:u8
//     OK+DRAIN  body := more:u8  count:u32le  count * report
//     OK+CLOSE  body := complete:u8  events:u64le  reports:u64le
//     OK+STATS  body := utf-8 metrics JSON
//     OK+SNAPSHOT body := the snapshot blob (self-framing: magic + length +
//                         CRC32C, see service/snapshot.hpp)
//     OK+RESTORE  body := empty (the fresh session id is the header field)
//
//   report := loc:u64le task:u32le curr_kind:u8 prior_kind:u8 ordinal:u64le
//
// Each of these is defined once. The frame is built by append_frame and
// parsed by frame_length, for the pipe, the socket server and the client
// alike, and its two faults read the same on both transports. The 22-byte
// report record is put_report/get_report, for DRAIN answers and snapshot
// blobs alike. Every integer goes through io/byte_codec.hpp.
//
// Both sides decode defensively: any malformed payload yields a structured
// decode failure (the server answers kBadFrame, it never crashes), and
// encode∘decode is identity — service_test pins every shape's bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "io/byte_codec.hpp"

namespace race2d {

inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

enum class Verb : std::uint8_t {
  kOpen = 1,
  kFeed = 2,
  kDrain = 3,
  kClose = 4,
  kStats = 5,
  kSnapshot = 6,  ///< serialize a live session to a portable blob
  kRestore = 7,   ///< recreate a session (fresh id) from a snapshot blob
};

enum class ServiceStatus : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,        ///< request payload undecodable (shape, not content)
  kUnknownVerb = 2,
  kUnknownSession = 3,  ///< no live session with that id
  kSessionLimit = 4,    ///< open refused: live-session cap reached
  kQuotaEvicted = 5,    ///< session evicted for exceeding its memory quota
  kBackpressure = 6,    ///< feed refused until the client drains reports
  kLintReject = 7,      ///< session stream failed the trace linter
  kDecodeReject = 8,    ///< session stream failed the binary decoder
  kSnapshotReject = 9,  ///< snapshot/restore failed (message leads with the
                        ///< stable K-code, see service/snapshot.hpp)
};

/// Stable kebab-case id, e.g. "quota-evicted".
const char* service_status_id(ServiceStatus status);

/// The precedence backend an OPEN names. Both values are accepted on the
/// wire and both are served by the DSU detector: the report streams are
/// identical, so the byte selects nothing.
enum class DetectorEngine : std::uint8_t {
  kDsu = 0,   ///< labeled DSU suprema (Figure 6; the default)
  kDepa = 1,  ///< order-maintenance labels (core/depa_detector.hpp)
};

struct OpenRequest {
  ReportPolicy policy = ReportPolicy::kAll;
  std::uint64_t quota_bytes = 0;  ///< 0 = the service's default quota
  DetectorEngine engine = DetectorEngine::kDsu;
};

struct Request {
  Verb verb = Verb::kStats;
  std::uint32_t session = 0;
  OpenRequest open;            ///< kOpen only
  std::string bytes;           ///< kFeed: binary-trace wire bytes;
                               ///< kRestore: a snapshot blob
  std::uint32_t max_reports = 0;  ///< kDrain only (0 = all pending)
};

/// A request that creates a session where it runs: OPEN, or a RESTORE that
/// carries a blob. A blobless RESTORE with an id rehydrates a spilled
/// session on its owner instead. The pool routes by this, and a socket
/// connection owns exactly the sessions its creating requests made.
inline bool creates_session(const Request& request) {
  return request.verb == Verb::kOpen ||
         (request.verb == Verb::kRestore &&
          !(request.bytes.empty() && request.session != 0));
}

struct FeedResult {
  std::uint64_t events = 0;          ///< events decoded+checked this feed
  std::uint32_t pending_reports = 0;  ///< reports awaiting drain
  bool backpressure = false;          ///< drain soon: pending near the cap
};

struct DrainResult {
  std::vector<RaceReport> reports;
  bool more = false;  ///< pending reports remain beyond max_reports
};

struct CloseResult {
  bool complete = false;  ///< trailer seen and end-of-trace lint clean
  std::uint64_t events = 0;
  std::uint64_t reports = 0;
};

struct Response {
  Verb verb = Verb::kStats;  ///< echoes the request (selects the body shape)
  ServiceStatus status = ServiceStatus::kOk;
  std::uint32_t session = 0;
  std::string message;  ///< error detail, or the stats JSON
  std::string blob;     ///< kSnapshot only: the session snapshot bytes
  FeedResult feed;
  DrainResult drain;
  CloseResult close;
};

/// A failure answer: `verb` echoed, the session it concerns (0 for none),
/// a status other than kOk and its message. Every refusal is built here,
/// from the service, the pool and both transports alike.
Response error_response(Verb verb, std::uint32_t session, ServiceStatus status,
                        std::string message);

/// Payload codecs. decode_* return false and set `error` on malformed input
/// (undersized body, trailing bytes, out-of-range enum) — they never throw.
std::string encode_request(const Request& request);
bool decode_request(std::string_view payload, Request& out,
                    std::string& error);
std::string encode_response(const Response& response);
bool decode_response(std::string_view payload, Response& out,
                     std::string& error);

/// The report record DRAIN answers and snapshot blobs carry.
inline constexpr std::size_t kReportRecordBytes = 22;
void put_report(std::string& out, const RaceReport& report);
/// Reads one record. False when fewer than kReportRecordBytes remain or a
/// kind byte names no AccessKind.
bool get_report(ByteReader& in, RaceReport& report);

/// Stream framing. append_frame appends `payload` behind its length
/// prefix; the caller keeps it within kMaxFrameBytes. frame_length reads
/// the prefix at the front of `bytes` (at least 4 of them) and fails, with
/// `error` set, on a length past the cap. truncated_frame is the error of
/// a stream that ended `buffered` bytes into a frame.
void append_frame(std::string& out, std::string_view payload);
bool frame_length(std::string_view bytes, std::uint32_t& len,
                  std::string& error);
std::string truncated_frame(std::size_t buffered);

/// Framing over iostreams (the pipe transport, tests). write_frame rejects
/// oversized payloads with a ContractViolation (the caller built an
/// illegal frame). read_frame returns false on clean EOF before a frame
/// starts; `error` is set (with false) on a truncated or oversized frame.
void write_frame(std::ostream& os, std::string_view payload);
bool read_frame(std::istream& is, std::string& payload, std::string& error);

}  // namespace race2d
