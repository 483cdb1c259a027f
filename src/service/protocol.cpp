#include "service/protocol.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace race2d {

namespace {

/// A DRAIN response's fixed part: the 6-byte response header, `more` and
/// the count.
constexpr std::size_t kDrainHeaderBytes = 11;

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
  put_le(out, static_cast<std::uint8_t>(request.verb));
  put_le(out, request.session);
  switch (request.verb) {
    case Verb::kOpen:
      put_le(out, static_cast<std::uint8_t>(request.open.policy));
      put_le(out, request.open.quota_bytes);
      // Trailing engine byte. Decoders accept its absence as kDsu; servers
      // validate it and then serve every session with the DSU detector.
      put_le(out, static_cast<std::uint8_t>(request.open.engine));
      break;
    case Verb::kFeed:
    case Verb::kRestore:
      out.append(request.bytes);
      break;
    case Verb::kDrain:
      put_le(out, request.max_reports);
      break;
    case Verb::kClose:
    case Verb::kStats:
    case Verb::kSnapshot:
      break;
  }
  return out;
}

bool decode_request(std::string_view payload, Request& out,
                    std::string& error) {
  out = Request{};
  ByteReader c(payload);
  std::uint8_t verb = 0;
  if (!c.get(verb) || !c.get(out.session))
    return fail(error, "request shorter than the verb+session header");
  if (verb < static_cast<std::uint8_t>(Verb::kOpen) ||
      verb > static_cast<std::uint8_t>(Verb::kRestore))
    return fail(error, "unknown request verb");
  out.verb = static_cast<Verb>(verb);
  switch (out.verb) {
    case Verb::kOpen: {
      std::uint8_t policy = 0;
      if (!c.get(policy) || !c.get(out.open.quota_bytes))
        return fail(error, "open body needs policy:u8 quota:u64");
      if (policy > static_cast<std::uint8_t>(ReportPolicy::kFirstOnly))
        return fail(error, "open names an unknown report policy");
      out.open.policy = static_cast<ReportPolicy>(policy);
      if (c.remaining() != 0) {  // optional engine byte (legacy: absent)
        std::uint8_t engine = 0;
        if (!c.get(engine) ||
            engine > static_cast<std::uint8_t>(DetectorEngine::kDepa))
          return fail(error, "open names an unknown detector engine");
        out.open.engine = static_cast<DetectorEngine>(engine);
      }
      break;
    }
    case Verb::kFeed:
    case Verb::kRestore:
      out.bytes = c.rest();
      break;
    case Verb::kDrain:
      if (!c.get(out.max_reports))
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

void put_report(std::string& out, const RaceReport& report) {
  char record[kReportRecordBytes];
  put_le(record, report.loc);
  put_le(record + 8, report.current_task);
  put_le(record + 12, static_cast<std::uint8_t>(report.current_kind));
  put_le(record + 13, static_cast<std::uint8_t>(report.prior_kind));
  put_le(record + 14, static_cast<std::uint64_t>(report.access_index));
  out.append(record, sizeof(record));
}

bool get_report(ByteReader& in, RaceReport& report) {
  std::string_view record;
  if (!in.take(kReportRecordBytes, record)) return false;
  const std::uint8_t ck = static_cast<std::uint8_t>(record[12]);
  const std::uint8_t pk = static_cast<std::uint8_t>(record[13]);
  if (!valid_kind(ck) || !valid_kind(pk)) return false;
  report.loc = get_le<std::uint64_t>(record.data());
  report.current_task = get_le<std::uint32_t>(record.data() + 8);
  report.current_kind = static_cast<AccessKind>(ck);
  report.prior_kind = static_cast<AccessKind>(pk);
  report.access_index =
      static_cast<std::size_t>(get_le<std::uint64_t>(record.data() + 14));
  return true;
}

std::string encode_response(const Response& response) {
  std::string out;
  put_le(out, static_cast<std::uint8_t>(response.verb));
  put_le(out, static_cast<std::uint8_t>(response.status));
  put_le(out, response.session);
  if (response.status != ServiceStatus::kOk) {
    out.append(response.message);
    return out;
  }
  switch (response.verb) {
    case Verb::kOpen:
      break;
    case Verb::kFeed:
      put_le(out, response.feed.events);
      put_le(out, response.feed.pending_reports);
      put_le(out, std::uint8_t{response.feed.backpressure});
      break;
    case Verb::kDrain: {
      const std::vector<RaceReport>& reports = response.drain.reports;
      out.reserve(kDrainHeaderBytes + kReportRecordBytes * reports.size());
      put_le(out, std::uint8_t{response.drain.more});
      put_le(out, static_cast<std::uint32_t>(reports.size()));
      for (const RaceReport& r : reports) put_report(out, r);
      break;
    }
    case Verb::kClose:
      put_le(out, std::uint8_t{response.close.complete});
      put_le(out, response.close.events);
      put_le(out, response.close.reports);
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

bool decode_response(std::string_view payload, Response& out,
                     std::string& error) {
  out = Response{};
  ByteReader c(payload);
  std::uint8_t verb = 0;
  std::uint8_t status = 0;
  if (!c.get(verb) || !c.get(status) || !c.get(out.session))
    return fail(error, "response shorter than the verb+status+session header");
  if (verb < static_cast<std::uint8_t>(Verb::kOpen) ||
      verb > static_cast<std::uint8_t>(Verb::kRestore))
    return fail(error, "response echoes an unknown verb");
  if (status > static_cast<std::uint8_t>(ServiceStatus::kSnapshotReject))
    return fail(error, "unknown response status");
  out.verb = static_cast<Verb>(verb);
  out.status = static_cast<ServiceStatus>(status);
  if (out.status != ServiceStatus::kOk) {
    out.message = c.rest();
    return true;
  }
  switch (out.verb) {
    case Verb::kOpen:
      break;
    case Verb::kFeed: {
      std::uint8_t bp = 0;
      if (!c.get(out.feed.events) || !c.get(out.feed.pending_reports) ||
          !c.get(bp))
        return fail(error, "feed result body truncated");
      if (bp > 1) return fail(error, "feed backpressure flag out of range");
      out.feed.backpressure = bp != 0;
      break;
    }
    case Verb::kDrain: {
      std::uint8_t more = 0;
      std::uint32_t count = 0;
      if (!c.get(more) || !c.get(count))
        return fail(error, "drain result header truncated");
      if (more > 1) return fail(error, "drain more flag out of range");
      out.drain.more = more != 0;
      // Fixed-size records; bound before reserving so a hostile count
      // cannot force a huge allocation.
      if (c.remaining() != static_cast<std::size_t>(count) * kReportRecordBytes)
        return fail(error, "drain body size disagrees with its report count");
      out.drain.reports.resize(count);
      for (RaceReport& r : out.drain.reports)
        if (!get_report(c, r))
          return fail(error, "drain report names an unknown access kind");
      break;
    }
    case Verb::kClose: {
      std::uint8_t complete = 0;
      if (!c.get(complete) || !c.get(out.close.events) ||
          !c.get(out.close.reports))
        return fail(error, "close result body truncated");
      if (complete > 1) return fail(error, "close complete flag out of range");
      out.close.complete = complete != 0;
      break;
    }
    case Verb::kStats:
      out.message = c.rest();
      break;
    case Verb::kSnapshot:
      out.blob = c.rest();
      break;
    case Verb::kRestore:
      break;
  }
  if (c.remaining() != 0)
    return fail(error, "trailing bytes after the response body");
  return true;
}

void append_frame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + 4 + payload.size());
  put_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

bool frame_length(std::string_view bytes, std::uint32_t& len,
                  std::string& error) {
  R2D_ASSERT(bytes.size() >= 4);
  len = get_le<std::uint32_t>(bytes.data());
  if (len <= kMaxFrameBytes) return true;
  std::ostringstream os;
  os << "frame length " << len << " exceeds the " << kMaxFrameBytes
     << "-byte cap";
  error = os.str();
  return false;
}

std::string truncated_frame(std::size_t buffered) {
  return buffered < 4 ? "stream ended inside a frame length prefix"
                      : "stream ended inside a frame payload";
}

void write_frame(std::ostream& os, std::string_view payload) {
  R2D_REQUIRE(payload.size() <= kMaxFrameBytes,
              "write_frame: payload exceeds kMaxFrameBytes");
  std::string frame;
  append_frame(frame, payload);
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

bool read_frame(std::istream& is, std::string& payload, std::string& error) {
  error.clear();
  char prefix[4];
  is.read(prefix, 4);
  const auto got = static_cast<std::size_t>(is.gcount());
  if (got == 0 && is.eof()) return false;  // clean end of stream
  if (got != 4) {
    error = truncated_frame(got);
    return false;
  }
  std::uint32_t len = 0;
  if (!frame_length(std::string_view(prefix, 4), len, error)) return false;
  payload.resize(len);
  if (len > 0) {
    is.read(payload.data(), static_cast<std::streamsize>(len));
    if (static_cast<std::uint32_t>(is.gcount()) != len) {
      error = truncated_frame(4 + static_cast<std::size_t>(is.gcount()));
      return false;
    }
  }
  return true;
}

}  // namespace race2d
