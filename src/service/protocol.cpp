#include "service/protocol.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace race2d {

namespace {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

/// Stores `v` little-endian into `bytes` bytes at `p`.
void store_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    p[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
}

/// A DRAIN response: the 6-byte response header, `more` and the count,
/// then one fixed-size record per report.
constexpr std::size_t kDrainHeaderBytes = 11;
constexpr std::size_t kReportRecordBytes = 22;

/// Bounds-checked little-endian reader over a payload. Every get_* reports
/// failure by return value; decode shapes test `ok` once per field group.
struct Cursor {
  const unsigned char* p;
  std::size_t size;
  std::size_t pos = 0;

  explicit Cursor(const std::string& payload)
      : p(reinterpret_cast<const unsigned char*>(payload.data())),
        size(payload.size()) {}

  std::size_t remaining() const { return size - pos; }

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = p[pos++];
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 4;
    return true;
  }
  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 8;
    return true;
  }
};

bool fail(std::string& error, const char* what) {
  error = what;
  return false;
}

bool valid_kind(std::uint8_t k) {
  return k <= static_cast<std::uint8_t>(AccessKind::kRetire);
}

}  // namespace

const char* service_status_id(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk:             return "ok";
    case ServiceStatus::kBadFrame:       return "bad-frame";
    case ServiceStatus::kUnknownVerb:    return "unknown-verb";
    case ServiceStatus::kUnknownSession: return "unknown-session";
    case ServiceStatus::kSessionLimit:   return "session-limit";
    case ServiceStatus::kQuotaEvicted:   return "quota-evicted";
    case ServiceStatus::kBackpressure:   return "backpressure";
    case ServiceStatus::kLintReject:     return "lint-reject";
    case ServiceStatus::kDecodeReject:   return "decode-reject";
    case ServiceStatus::kSnapshotReject: return "snapshot-reject";
  }
  return "?";
}

Response error_response(Verb verb, std::uint32_t session, ServiceStatus status,
                        std::string message) {
  Response r;
  r.verb = verb;
  r.session = session;
  r.status = status;
  r.message = std::move(message);
  return r;
}

std::string encode_request(const Request& request) {
  std::string out;
  const bool carries_bytes =
      request.verb == Verb::kFeed || request.verb == Verb::kRestore;
  out.reserve(16 + (carries_bytes ? request.bytes.size() : 0));
  put_u8(out, static_cast<std::uint8_t>(request.verb));
  put_u32(out, request.session);
  switch (request.verb) {
    case Verb::kOpen:
      put_u8(out, static_cast<std::uint8_t>(request.open.policy));
      put_u64(out, request.open.quota_bytes);
      // Trailing engine byte. Decoders accept its absence as kDsu; servers
      // validate it and then serve every session with the DSU detector.
      put_u8(out, static_cast<std::uint8_t>(request.open.engine));
      break;
    case Verb::kFeed:
    case Verb::kRestore:
      out.append(request.bytes);
      break;
    case Verb::kDrain:
      put_u32(out, request.max_reports);
      break;
    case Verb::kClose:
    case Verb::kStats:
    case Verb::kSnapshot:
      break;
  }
  return out;
}

bool decode_request(const std::string& payload, Request& out,
                    std::string& error) {
  out = Request{};
  Cursor c(payload);
  std::uint8_t verb = 0;
  if (!c.get_u8(verb) || !c.get_u32(out.session))
    return fail(error, "request shorter than the verb+session header");
  if (verb < static_cast<std::uint8_t>(Verb::kOpen) ||
      verb > static_cast<std::uint8_t>(Verb::kRestore))
    return fail(error, "unknown request verb");
  out.verb = static_cast<Verb>(verb);
  switch (out.verb) {
    case Verb::kOpen: {
      std::uint8_t policy = 0;
      if (!c.get_u8(policy) || !c.get_u64(out.open.quota_bytes))
        return fail(error, "open body needs policy:u8 quota:u64");
      if (policy > static_cast<std::uint8_t>(ReportPolicy::kFirstOnly))
        return fail(error, "open names an unknown report policy");
      out.open.policy = static_cast<ReportPolicy>(policy);
      if (c.remaining() != 0) {  // optional engine byte (legacy: absent)
        std::uint8_t engine = 0;
        if (!c.get_u8(engine) ||
            engine > static_cast<std::uint8_t>(DetectorEngine::kDepa))
          return fail(error, "open names an unknown detector engine");
        out.open.engine = static_cast<DetectorEngine>(engine);
      }
      break;
    }
    case Verb::kFeed:
    case Verb::kRestore:
      out.bytes.assign(payload, c.pos, payload.size() - c.pos);
      c.pos = c.size;
      break;
    case Verb::kDrain:
      if (!c.get_u32(out.max_reports))
        return fail(error, "drain body needs max_reports:u32");
      break;
    case Verb::kClose:
    case Verb::kStats:
    case Verb::kSnapshot:
      break;
  }
  if (c.remaining() != 0)
    return fail(error, "trailing bytes after the request body");
  return true;
}

std::string encode_response(const Response& response) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(response.verb));
  put_u8(out, static_cast<std::uint8_t>(response.status));
  put_u32(out, response.session);
  if (response.status != ServiceStatus::kOk) {
    out.append(response.message);
    return out;
  }
  switch (response.verb) {
    case Verb::kOpen:
      break;
    case Verb::kFeed:
      put_u64(out, response.feed.events);
      put_u32(out, response.feed.pending_reports);
      put_u8(out, response.feed.backpressure ? 1 : 0);
      break;
    case Verb::kDrain: {
      const std::vector<RaceReport>& reports = response.drain.reports;
      out.reserve(kDrainHeaderBytes + kReportRecordBytes * reports.size());
      put_u8(out, response.drain.more ? 1 : 0);
      put_u32(out, static_cast<std::uint32_t>(reports.size()));
      for (const RaceReport& r : reports) {
        char record[kReportRecordBytes];
        store_le(record, r.loc, 8);
        store_le(record + 8, r.current_task, 4);
        store_le(record + 12, static_cast<std::uint8_t>(r.current_kind), 1);
        store_le(record + 13, static_cast<std::uint8_t>(r.prior_kind), 1);
        store_le(record + 14, static_cast<std::uint64_t>(r.access_index), 8);
        out.append(record, sizeof(record));
      }
      break;
    }
    case Verb::kClose:
      put_u8(out, response.close.complete ? 1 : 0);
      put_u64(out, response.close.events);
      put_u64(out, response.close.reports);
      break;
    case Verb::kStats:
      out.append(response.message);
      break;
    case Verb::kSnapshot:
      out.append(response.blob);
      break;
    case Verb::kRestore:
      break;
  }
  return out;
}

bool decode_response(const std::string& payload, Response& out,
                     std::string& error) {
  out = Response{};
  Cursor c(payload);
  std::uint8_t verb = 0;
  std::uint8_t status = 0;
  if (!c.get_u8(verb) || !c.get_u8(status) || !c.get_u32(out.session))
    return fail(error, "response shorter than the verb+status+session header");
  if (verb < static_cast<std::uint8_t>(Verb::kOpen) ||
      verb > static_cast<std::uint8_t>(Verb::kRestore))
    return fail(error, "response echoes an unknown verb");
  if (status > static_cast<std::uint8_t>(ServiceStatus::kSnapshotReject))
    return fail(error, "unknown response status");
  out.verb = static_cast<Verb>(verb);
  out.status = static_cast<ServiceStatus>(status);
  if (out.status != ServiceStatus::kOk) {
    out.message.assign(payload, c.pos, payload.size() - c.pos);
    return true;
  }
  switch (out.verb) {
    case Verb::kOpen:
      break;
    case Verb::kFeed: {
      std::uint8_t bp = 0;
      if (!c.get_u64(out.feed.events) ||
          !c.get_u32(out.feed.pending_reports) || !c.get_u8(bp))
        return fail(error, "feed result body truncated");
      if (bp > 1) return fail(error, "feed backpressure flag out of range");
      out.feed.backpressure = bp != 0;
      break;
    }
    case Verb::kDrain: {
      std::uint8_t more = 0;
      std::uint32_t count = 0;
      if (!c.get_u8(more) || !c.get_u32(count))
        return fail(error, "drain result header truncated");
      if (more > 1) return fail(error, "drain more flag out of range");
      out.drain.more = more != 0;
      // Fixed-size records; bound before reserving so a hostile count
      // cannot force a huge allocation.
      if (c.remaining() != static_cast<std::size_t>(count) * kReportRecordBytes)
        return fail(error, "drain body size disagrees with its report count");
      out.drain.reports.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        RaceReport r;
        std::uint8_t ck = 0;
        std::uint8_t pk = 0;
        std::uint64_t ordinal = 0;
        if (!c.get_u64(r.loc) || !c.get_u32(r.current_task) ||
            !c.get_u8(ck) || !c.get_u8(pk) || !c.get_u64(ordinal))
          return fail(error, "drain report truncated");
        if (!valid_kind(ck) || !valid_kind(pk))
          return fail(error, "drain report names an unknown access kind");
        r.current_kind = static_cast<AccessKind>(ck);
        r.prior_kind = static_cast<AccessKind>(pk);
        r.access_index = static_cast<std::size_t>(ordinal);
        out.drain.reports.push_back(r);
      }
      break;
    }
    case Verb::kClose: {
      std::uint8_t complete = 0;
      if (!c.get_u8(complete) || !c.get_u64(out.close.events) ||
          !c.get_u64(out.close.reports))
        return fail(error, "close result body truncated");
      if (complete > 1) return fail(error, "close complete flag out of range");
      out.close.complete = complete != 0;
      break;
    }
    case Verb::kStats:
      out.message.assign(payload, c.pos, payload.size() - c.pos);
      return true;
    case Verb::kSnapshot:
      out.blob.assign(payload, c.pos, payload.size() - c.pos);
      return true;
    case Verb::kRestore:
      break;
  }
  if (c.remaining() != 0)
    return fail(error, "trailing bytes after the response body");
  return true;
}

void write_frame(std::ostream& os, const std::string& payload) {
  R2D_REQUIRE(payload.size() <= kMaxFrameBytes,
              "write_frame: payload exceeds kMaxFrameBytes");
  std::string len;
  put_u32(len, static_cast<std::uint32_t>(payload.size()));
  os.write(len.data(), static_cast<std::streamsize>(len.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

bool read_frame(std::istream& is, std::string& payload, std::string& error) {
  error.clear();
  char lenbuf[4];
  is.read(lenbuf, 4);
  if (is.gcount() == 0 && is.eof()) return false;  // clean end of stream
  if (is.gcount() != 4) {
    error = "stream ended inside a frame length prefix";
    return false;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(lenbuf[i]))
           << (8 * i);
  if (len > kMaxFrameBytes) {
    std::ostringstream os;
    os << "frame length " << len << " exceeds the " << kMaxFrameBytes
       << "-byte cap";
    error = os.str();
    return false;
  }
  payload.resize(len);
  if (len > 0) {
    is.read(payload.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::uint32_t>(is.gcount()) != len) {
      error = "stream ended inside a frame payload";
      return false;
    }
  }
  return true;
}

}  // namespace race2d
