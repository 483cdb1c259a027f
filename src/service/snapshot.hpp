// Session snapshot/restore: a live detection session as a portable blob.
//
// A snapshot captures the WHOLE ingest pipeline mid-stream — decoder state
// machine (including the partial frame's bytes), lint gate state, detector
// internals (labeled-DSU engine + shadow cells, or the DePa clock's tags +
// shadow cells with pointers rewritten to arena allocation indices),
// the undrained report backlog and the reporter's totals — so that a
// restored session continues bit-identically: feeding the remainder of the
// original stream yields exactly the reports the unsnapshotted session
// would have produced. The blob is self-framed and self-checking:
//
//   blob    := magic[8] ("R2DSNAP\x03")  payload_len:u32le
//              payload_crc:u32le (CRC32C)  payload[payload_len]
//   payload := fed_bytes:u64le  policy:u8  engine:u8  quota_bytes:u64le
//              <session state, see snapshot.cpp>
//
// fed_bytes leads the payload so clients can cheaply ask "how much of my
// stream does this snapshot cover?" (snapshot_fed_bytes) and resume the
// feed at that offset after a restore. quota_bytes is the session's
// EFFECTIVE per-session memory quota at snapshot time, so a migration
// cannot silently loosen a cap the original OPEN tightened; the restoring
// service re-clamps it to its own session_quota_bytes limit.
//
// Every malformed blob is rejected with a STABLE error code (the
// kSnapshotReject message leads with it):
//
//   K001  blob truncated before the fixed header
//   K002  bad magic or unsupported snapshot version
//   K003  payload length disagrees with the blob size
//   K004  payload CRC32C mismatch
//   K005  payload structure truncated or carries trailing bytes
//   K006  a field holds an out-of-range value
//   K007  cross-field validation failed (an index names a missing object,
//         or a DePa tag lies outside the universe or repeats within a list)
//   K008  session not snapshotable (poisoned, or the blob would exceed the
//         protocol frame cap)
//
// The CRC is verified before a single payload byte is interpreted, so any
// random corruption (truncation, bit flip) is caught by K001–K004; K005–K007
// defend against well-checksummed but semantically inconsistent blobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/session.hpp"

namespace race2d {

/// Serializes a live, unpoisoned session together with its effective
/// per-session memory quota. The caller (the service) checks poisoned()
/// first and answers K008; calling this on a poisoned session is a
/// contract violation.
std::string snapshot_session(const DetectionSession& session,
                             std::size_t quota_bytes);

struct RestoreOutcome {
  std::unique_ptr<DetectionSession> session;  ///< null on rejection
  /// The quota recorded in the blob; the installing service clamps it to
  /// its own session_quota_bytes before applying it.
  std::uint64_t quota_bytes = 0;
  std::string error;  ///< rejection detail, leads with the K-code
};

/// Validates `blob` exhaustively (framing, CRC, every index) and rebuilds
/// the session. Never throws on malformed input — rejection is an outcome.
RestoreOutcome restore_session(const std::string& blob);

/// Cheap peek at the fed-byte count a snapshot covers (full framing + CRC
/// validation, no state rebuild). Returns false with the K-coded `error`
/// on any malformed blob.
bool snapshot_fed_bytes(const std::string& blob, std::uint64_t& fed_bytes,
                        std::string& error);

}  // namespace race2d
