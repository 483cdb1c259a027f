#include "service/snapshot.hpp"

#include <cstring>
#include <utility>

#include "io/crc32c.hpp"
#include "service/protocol.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

// Version byte bumped to 2 when the decoder section grew its wire-format
// version and compressed-chunk flag, and to 3 when the DePa section traded
// fork-path labels for order-maintenance tags; older blobs are refused with
// K002 (the service never persisted them across releases).
constexpr char kMagic[8] = {'R', '2', 'D', 'S', 'N', 'A', 'P', '\x03'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 4;

/// Restore-side rejection: the K-coded message restore_session returns.
struct SnapshotReject {
  std::string message;
};

[[noreturn]] void reject(const char* code, const char* what) {
  throw SnapshotReject{std::string(code) + ": " + what};
}

// ---------------------------------------------------------------- writer --

struct Writer {
  std::string out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  void bytes(const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  }
};

// ---------------------------------------------------------------- reader --

/// Bounds-checked little-endian reader; every underrun is a K005.
struct Reader {
  const unsigned char* p;
  std::size_t size;
  std::size_t pos = 0;

  Reader(const void* data, std::size_t n)
      : p(static_cast<const unsigned char*>(data)), size(n) {}

  std::size_t remaining() const { return size - pos; }

  void need(std::size_t n) {
    if (remaining() < n) reject("K005", "payload structure truncated");
  }
  std::uint8_t u8() {
    need(1);
    return p[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    pos += 8;
    return v;
  }
  /// An element count followed by `min_elem_bytes`-sized elements cannot
  /// exceed the bytes left — checked BEFORE any reserve so a hostile count
  /// cannot force a huge allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes)
      reject("K005", "element count exceeds the payload size");
    return static_cast<std::size_t>(n);
  }
};

// ------------------------------------------------------- report sections --

void put_report(Writer& w, const RaceReport& r) {
  w.u64(r.loc);
  w.u32(r.current_task);
  w.u8(static_cast<std::uint8_t>(r.current_kind));
  w.u8(static_cast<std::uint8_t>(r.prior_kind));
  w.u64(static_cast<std::uint64_t>(r.access_index));
}

RaceReport get_report(Reader& r) {
  RaceReport out;
  out.loc = r.u64();
  out.current_task = r.u32();
  const std::uint8_t ck = r.u8();
  const std::uint8_t pk = r.u8();
  if (ck > static_cast<std::uint8_t>(AccessKind::kRetire) ||
      pk > static_cast<std::uint8_t>(AccessKind::kRetire))
    reject("K006", "report names an unknown access kind");
  out.current_kind = static_cast<AccessKind>(ck);
  out.prior_kind = static_cast<AccessKind>(pk);
  out.access_index = static_cast<std::size_t>(r.u64());
  return out;
}

void put_reports(Writer& w, const std::vector<RaceReport>& reports) {
  w.u64(reports.size());
  for (const RaceReport& r : reports) put_report(w, r);
}

std::vector<RaceReport> get_reports(Reader& r) {
  const std::size_t n = r.count(22);
  std::vector<RaceReport> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(get_report(r));
  return out;
}

// ------------------------------------------------------- decoder section --

void put_decoder(Writer& w, const BinaryTraceDecoder::Snapshot& d) {
  w.u8(d.state);
  w.u8(d.version);
  w.u8(d.compressed ? 1 : 0);
  w.u64(d.need);
  w.u32(d.payload_len);
  w.u32(d.payload_crc);
  w.u64(d.offset);
  w.u64(d.events_decoded);
  w.u64(d.buffer.size());
  w.bytes(d.buffer.data(), d.buffer.size());
}

BinaryTraceDecoder::Snapshot get_decoder(Reader& r) {
  BinaryTraceDecoder::Snapshot d;
  d.state = r.u8();
  // 5 == State::kDone; 6 == kPoisoned, which never snapshots.
  if (d.state > 5) reject("K006", "decoder phase out of range");
  d.version = r.u8();
  if (d.version != kBinaryTraceVersion &&
      d.version != kBinaryTraceVersionCompressed)
    reject("K006", "decoder wire-format version out of range");
  const std::uint8_t compressed = r.u8();
  if (compressed > 1) reject("K006", "decoder compressed flag out of range");
  if (compressed != 0 && d.version != kBinaryTraceVersionCompressed)
    reject("K006", "compressed chunk flagged in a version-1 stream");
  d.compressed = compressed != 0;
  d.need = r.u64();
  d.payload_len = r.u32();
  d.payload_crc = r.u32();
  d.offset = r.u64();
  d.events_decoded = r.u64();
  const std::size_t n = r.count(1);
  r.need(n);
  d.buffer.assign(r.p + r.pos, r.p + r.pos + n);
  r.pos += n;
  if (d.need != 0 && d.buffer.size() > d.need)
    reject("K007", "decoder buffer larger than the frame it is collecting");
  return d;
}

// ---------------------------------------------------------- lint section --

void put_lint(Writer& w, const TraceLintStream::Snapshot& l) {
  w.u64(l.index);
  w.u8(l.finished ? 1 : 0);
  w.u64(l.warnings_emitted);
  w.u64(l.errors_emitted);
  w.u64(l.tasks.size());
  for (const TraceLintStream::TaskState& t : l.tasks) {
    w.u32(t.left);
    w.u32(t.right);
    w.u32(t.finish_depth);
    w.u8(t.halted ? 1 : 0);
    w.u8(t.joined ? 1 : 0);
  }
  w.u64(l.stack.size());
  for (TaskId t : l.stack) w.u32(t);
  w.u64(l.locs.size());
  for (const auto& [loc, mask] : l.locs) {
    w.u64(loc);
    w.u8(mask);
  }
  w.u64(l.mutexes.size());
  for (const auto& [id, holder] : l.mutexes) {
    w.u64(id);
    w.u32(holder);
  }
  w.u64(l.semaphores.size());
  for (const auto& [id, count] : l.semaphores) {
    w.u64(id);
    w.u64(count);
  }
}

TraceLintStream::Snapshot get_lint(Reader& r) {
  TraceLintStream::Snapshot l;
  l.index = r.u64();
  l.finished = r.u8() != 0;
  l.warnings_emitted = r.u64();
  l.errors_emitted = r.u64();
  const std::size_t tasks = r.count(14);
  l.tasks.resize(tasks);
  const auto valid_task = [tasks](TaskId t) {
    return t == kInvalidTask || t < tasks;
  };
  for (TraceLintStream::TaskState& t : l.tasks) {
    t.left = r.u32();
    t.right = r.u32();
    t.finish_depth = r.u32();
    t.halted = r.u8() != 0;
    t.joined = r.u8() != 0;
    if (!valid_task(t.left) || !valid_task(t.right))
      reject("K007", "lint task neighbor names a missing task");
  }
  const std::size_t stack = r.count(4);
  l.stack.reserve(stack);
  for (std::size_t i = 0; i < stack; ++i) {
    const TaskId t = r.u32();
    if (t >= tasks) reject("K007", "lint stack names a missing task");
    l.stack.push_back(t);
  }
  const std::size_t locs = r.count(9);
  l.locs.reserve(locs);
  for (std::size_t i = 0; i < locs; ++i) {
    const Loc loc = r.u64();
    l.locs.emplace_back(loc, r.u8());
  }
  const std::size_t mutexes = r.count(12);
  l.mutexes.reserve(mutexes);
  for (std::size_t i = 0; i < mutexes; ++i) {
    const Loc id = r.u64();
    const TaskId holder = r.u32();
    if (holder != kInvalidTask && holder >= tasks)
      reject("K007", "lint mutex holder names a missing task");
    l.mutexes.emplace_back(id, holder);
  }
  const std::size_t semaphores = r.count(16);
  l.semaphores.reserve(semaphores);
  for (std::size_t i = 0; i < semaphores; ++i) {
    const Loc id = r.u64();
    l.semaphores.emplace_back(id, r.u64());
  }
  return l;
}

// ----------------------------------------------------- DSU engine section --

void put_dsu(Writer& w, const OnlineRaceDetector::State& s) {
  const std::size_t n = s.engine.dsu.parent.size();
  w.u64(n);
  for (std::uint32_t v : s.engine.dsu.parent) w.u32(v);
  w.bytes(s.engine.dsu.rank.data(), s.engine.dsu.rank.size());
  for (std::uint32_t v : s.engine.dsu.label) w.u32(v);
  w.bytes(s.engine.dsu.visited.data(), s.engine.dsu.visited.size());
  w.u64(s.engine.version);
  w.u64(s.cells.size());
  for (const auto& [loc, cell] : s.cells) {
    w.u64(loc);
    w.u32(cell.read_sup);
    w.u32(cell.write_sup);
    w.u32(cell.epoch_task);
    w.u64(cell.epoch_version);
  }
  put_reports(w, s.undrained);
  put_report(w, s.first);
  w.u64(s.reports_total);
  w.u64(s.access_count);
}

OnlineRaceDetector::State get_dsu(Reader& r) {
  OnlineRaceDetector::State s;
  const std::size_t n = r.count(10);  // 4+1+4+1 bytes per vertex
  const auto valid_vertex = [n](std::uint32_t v) {
    return v == kInvalidVertex || v < n;
  };
  s.engine.dsu.parent.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = r.u32();
    if (v >= n) reject("K007", "DSU parent names a missing vertex");
    s.engine.dsu.parent.push_back(v);
  }
  r.need(n);
  s.engine.dsu.rank.assign(r.p + r.pos, r.p + r.pos + n);
  r.pos += n;
  s.engine.dsu.label.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = r.u32();
    if (v >= n) reject("K007", "DSU label names a missing vertex");
    s.engine.dsu.label.push_back(v);
  }
  r.need(n);
  s.engine.dsu.visited.assign(r.p + r.pos, r.p + r.pos + n);
  r.pos += n;
  s.engine.version = r.u64();
  const std::size_t cells = r.count(24);
  s.cells.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const Loc loc = r.u64();
    ShadowCell cell;
    cell.read_sup = r.u32();
    cell.write_sup = r.u32();
    cell.epoch_task = r.u32();
    cell.epoch_version = r.u64();
    if (!valid_vertex(cell.read_sup) || !valid_vertex(cell.write_sup) ||
        !valid_vertex(cell.epoch_task))
      reject("K007", "shadow cell names a missing vertex");
    s.cells.emplace_back(loc, cell);
  }
  s.undrained = get_reports(r);
  s.first = get_report(r);
  s.reports_total = r.u64();
  s.access_count = r.u64();
  return s;
}

// ---------------------------------------------------- DePa engine section --

void put_depa(Writer& w, const DePaDetector::State& s) {
  w.u64(s.clock.intervals.size());
  for (const OmClock::Tags& iv : s.clock.intervals) {
    w.u64(iv.e);
    w.u64(iv.h);
  }
  w.u64(s.cur.size());
  for (std::uint64_t idx : s.cur) w.u64(idx);
  w.u64(s.cells.size());
  for (const DePaDetector::CellState& c : s.cells) {
    w.u64(c.loc);
    w.u64(c.read_emax);
    w.u64(c.read_hmax);
    w.u64(c.write_emax);
    w.u64(c.write_hmax);
    w.u32(c.owner);
  }
  put_reports(w, s.undrained);
  put_report(w, s.first);
  w.u64(s.reports_total);
  w.u64(s.access_count);
}

DePaDetector::State get_depa(Reader& r) {
  DePaDetector::State s;
  // Tags are range-checked and the lists rebuilt by sorting on them when
  // the session is restored (a failure there is a K007, see
  // restore_session).
  const std::size_t intervals = r.count(16);  // E tag + H tag
  s.clock.intervals.resize(intervals);
  for (OmClock::Tags& iv : s.clock.intervals) {
    iv.e = r.u64();
    iv.h = r.u64();
  }
  const auto valid_index = [intervals](std::uint64_t idx) {
    return idx == DePaDetector::kNullInterval || idx < intervals;
  };
  const std::size_t tasks = r.count(8);
  s.cur.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::uint64_t idx = r.u64();
    if (idx >= intervals)
      reject("K007", "task interval index names a missing interval");
    s.cur.push_back(idx);
  }
  const std::size_t cells = r.count(44);
  s.cells.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    DePaDetector::CellState c;
    c.loc = r.u64();
    c.read_emax = r.u64();
    c.read_hmax = r.u64();
    c.write_emax = r.u64();
    c.write_hmax = r.u64();
    c.owner = r.u32();
    if (!valid_index(c.read_emax) || !valid_index(c.read_hmax) ||
        !valid_index(c.write_emax) || !valid_index(c.write_hmax))
      reject("K007", "shadow cell names a missing interval");
    // The per-kind maxima are folded together: both set or both null.
    if ((c.read_emax == DePaDetector::kNullInterval) !=
            (c.read_hmax == DePaDetector::kNullInterval) ||
        (c.write_emax == DePaDetector::kNullInterval) !=
            (c.write_hmax == DePaDetector::kNullInterval))
      reject("K007", "shadow cell maxima half-set");
    if (c.owner != kInvalidTask && c.owner >= tasks)
      reject("K007", "shadow cell owner names a missing task");
    s.cells.push_back(c);
  }
  s.undrained = get_reports(r);
  s.first = get_report(r);
  s.reports_total = r.u64();
  s.access_count = r.u64();
  return s;
}

// ----------------------------------------------------------- whole blobs --

/// Frames, CRC-checks and opens `blob`; returns a reader over the payload.
Reader open_payload(const std::string& blob) {
  if (blob.size() < kHeaderBytes)
    reject("K001", "blob truncated before the fixed header");
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0)
    reject("K002", "bad magic or unsupported snapshot version");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(blob.data()) + sizeof(kMagic);
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    crc |= static_cast<std::uint32_t>(p[4 + i]) << (8 * i);
  }
  if (blob.size() != kHeaderBytes + static_cast<std::size_t>(len))
    reject("K003", "payload length disagrees with the blob size");
  const char* payload = blob.data() + kHeaderBytes;
  if (crc32c(payload, len) != crc) reject("K004", "payload CRC32C mismatch");
  return Reader(payload, len);
}

DetectionSession::State decode_payload(Reader& r, std::uint64_t& quota_bytes) {
  DetectionSession::State s;
  s.fed_bytes = r.u64();
  const std::uint8_t policy = r.u8();
  const std::uint8_t engine = r.u8();
  if (policy > static_cast<std::uint8_t>(ReportPolicy::kFirstOnly))
    reject("K006", "unknown report policy");
  if (engine > static_cast<std::uint8_t>(DetectorEngine::kDepa))
    reject("K006", "unknown detector engine");
  s.policy = static_cast<ReportPolicy>(policy);
  s.engine = static_cast<DetectorEngine>(engine);
  quota_bytes = r.u64();
  if (quota_bytes == 0) reject("K006", "session quota out of range");
  s.max_pending_reports = r.u64();
  s.events_total = r.u64();
  s.decoder = get_decoder(r);
  s.lint = get_lint(r);
  if (s.engine == DetectorEngine::kDsu)
    s.dsu = get_dsu(r);
  else
    s.depa = get_depa(r);
  s.pending = get_reports(r);
  if (r.remaining() != 0)
    reject("K005", "trailing bytes after the session state");
  return s;
}

}  // namespace

std::string snapshot_session(const DetectionSession& session,
                             std::size_t quota_bytes) {
  DetectionSession::State s = session.export_state();
  Writer w;
  w.u64(s.fed_bytes);
  w.u8(static_cast<std::uint8_t>(s.policy));
  w.u8(static_cast<std::uint8_t>(s.engine));
  w.u64(static_cast<std::uint64_t>(quota_bytes));
  w.u64(s.max_pending_reports);
  w.u64(s.events_total);
  put_decoder(w, s.decoder);
  put_lint(w, s.lint);
  if (s.engine == DetectorEngine::kDsu)
    put_dsu(w, s.dsu);
  else
    put_depa(w, s.depa);
  put_reports(w, s.pending);

  std::string blob;
  blob.reserve(kHeaderBytes + w.out.size());
  blob.append(kMagic, sizeof(kMagic));
  Writer header;
  header.u32(static_cast<std::uint32_t>(w.out.size()));
  header.u32(crc32c(w.out.data(), w.out.size()));
  blob.append(header.out);
  blob.append(w.out);
  return blob;
}

RestoreOutcome restore_session(const std::string& blob) {
  RestoreOutcome out;
  try {
    Reader r = open_payload(blob);
    DetectionSession::State s = decode_payload(r, out.quota_bytes);
    out.session = DetectionSession::restore(std::move(s));
    if (out.session == nullptr)
      reject("K007", "order-maintenance tag outside the universe or repeated "
                     "within a list");
  } catch (const SnapshotReject& e) {
    out.quota_bytes = 0;
    out.error = e.message;
  }
  return out;
}

bool snapshot_fed_bytes(const std::string& blob, std::uint64_t& fed_bytes,
                        std::string& error) {
  try {
    Reader r = open_payload(blob);
    fed_bytes = r.u64();
    return true;
  } catch (const SnapshotReject& e) {
    error = e.message;
    return false;
  }
}

}  // namespace race2d
