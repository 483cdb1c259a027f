#include "service/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "io/byte_codec.hpp"
#include "io/crc32c.hpp"
#include "support/assert.hpp"
#include "support/flat_hash_map.hpp"
#include "support/ids.hpp"
#include "support/live_tasks.hpp"

namespace race2d {

namespace {

// Version byte bumped to 2 when the decoder section grew its wire-format
// version and compressed-chunk flag, to 3 when the DePa section traded
// fork-path labels for order-maintenance tags, to 4 when sessions kept
// one engine: the payload lost its engine byte and DePa section, and the
// DSU section its structural version and per-cell version stamps, to 5
// when both per-task tables kept rows for live tasks only: the lint
// section carries its task count and the line, and the DSU section its
// task index, and to 6 when the blob stopped storing state a live session
// cannot vary: the decoder section lost its frame size (the phase implies
// it) and the lint section its finished flag and emitted-finding counts
// (a snapshottable gate has found nothing). Older blobs are refused with
// K002 (the service never persisted them across releases).
constexpr char kMagic[8] = {'R', '2', 'D', 'S', 'N', 'A', 'P', '\x06'};
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

  void u8(std::uint8_t v) { put_le(out, v); }
  void u32(std::uint32_t v) { put_le(out, v); }
  void u64(std::uint64_t v) { put_le(out, v); }
  void bytes(const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  }
};

// ---------------------------------------------------------------- reader --

/// The snapshot's view of a ByteReader: every underrun is a K005.
struct Reader {
  ByteReader in;

  template <class T>
  T get() {
    T v = 0;
    if (!in.get(v)) truncated();
    return v;
  }
  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::string_view bytes(std::size_t n) {
    std::string_view out;
    if (!in.take(n, out)) truncated();
    return out;
  }
  /// An element count followed by `min_elem_bytes`-sized elements cannot
  /// exceed the bytes left — checked BEFORE any reserve so a hostile count
  /// cannot force a huge allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes != 0 && n > in.remaining() / min_elem_bytes)
      reject("K005", "element count exceeds the payload size");
    return static_cast<std::size_t>(n);
  }
  [[noreturn]] static void truncated() {
    reject("K005", "payload structure truncated");
  }
};

// ------------------------------------------------------- report sections --

RaceReport get_report(Reader& r) {
  if (r.in.remaining() < kReportRecordBytes) r.truncated();
  RaceReport out;
  if (!get_report(r.in, out))
    reject("K006", "report names an unknown access kind");
  return out;
}

void put_reports(Writer& w, const std::vector<RaceReport>& reports) {
  w.u64(reports.size());
  for (const RaceReport& r : reports) put_report(w.out, r);
}

std::vector<RaceReport> get_reports(Reader& r) {
  const std::size_t n = r.count(kReportRecordBytes);
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
  // 5 == State::kDone; 6 (kPoisoned) and 7 (kStopped) never snapshot.
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
  d.payload_len = r.u32();
  d.payload_crc = r.u32();
  d.offset = r.u64();
  d.events_decoded = r.u64();
  const std::string_view buffer = r.bytes(r.count(1));
  d.buffer.assign(buffer.begin(), buffer.end());
  // 3 == State::kChunkPayload, which collects payload_len bytes.
  if (d.state == 3 && (d.payload_len == 0 || d.payload_len > kMaxChunkPayload))
    reject("K006", "decoder chunk payload length out of range");
  if (!d.buffer.empty() && d.buffer.size() >= d.need())
    reject("K007", "decoder buffer does not fit the frame it is collecting");
  return d;
}

// ---------------------------------------------------------- lint section --

void put_lint(Writer& w, const TraceLintStream::Snapshot& l) {
  w.u64(l.index);
  w.u64(l.task_count);
  w.u64(l.line.size());
  for (const TraceLintStream::LineTask& t : l.line) {
    w.u32(t.id);
    w.u32(t.left);
    w.u32(t.right);
    w.u32(t.finish_depth);
    w.u8(t.halted ? 1 : 0);
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

/// Whether `t` is an id of the ascending `line`.
bool on_line(const std::vector<TraceLintStream::LineTask>& line, TaskId t) {
  const auto it = std::lower_bound(
      line.begin(), line.end(), t,
      [](const TraceLintStream::LineTask& a, TaskId id) { return a.id < id; });
  return it != line.end() && it->id == t;
}

TraceLintStream::Snapshot get_lint(Reader& r) {
  TraceLintStream::Snapshot l;
  l.index = r.u64();
  l.task_count = r.u64();
  if (l.task_count > kInvalidTask)
    reject("K006", "lint task count out of range");
  const std::size_t line = r.count(17);
  l.line.resize(line);
  for (std::size_t i = 0; i < line; ++i) {
    TraceLintStream::LineTask& t = l.line[i];
    t.id = r.u32();
    t.left = r.u32();
    t.right = r.u32();
    t.finish_depth = r.u32();
    t.halted = r.u8() != 0;
    if (t.id >= l.task_count || (i != 0 && l.line[i - 1].id >= t.id))
      reject("K007", "lint line ids must ascend below the task count");
  }
  const auto linked = [&l](TaskId t) {
    return t == kInvalidTask || on_line(l.line, t);
  };
  for (const TraceLintStream::LineTask& t : l.line)
    if (!linked(t.left) || !linked(t.right))
      reject("K007", "lint line neighbor is not on the line");
  const std::size_t stack = r.count(4);
  l.stack.reserve(stack);
  for (std::size_t i = 0; i < stack; ++i) {
    const TaskId t = r.u32();
    if (!on_line(l.line, t))
      reject("K007", "lint stack names a task off the line");
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
  FlatHashMap<Loc, bool> seen;
  seen.reserve(mutexes);
  for (std::size_t i = 0; i < mutexes; ++i) {
    const Loc id = r.u64();
    const TaskId holder = r.u32();
    if (holder != kInvalidTask && holder >= l.task_count)
      reject("K007", "lint mutex holder names a missing task");
    if (is_semaphore_id(id))
      reject("K007", "lint mutex section names a semaphore");
    bool& repeated = seen[id];
    if (repeated) reject("K007", "lint mutex section repeats an id");
    repeated = true;
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
  w.u64(s.tasks.task_count);
  w.u64(s.tasks.base);
  w.u64(s.tasks.carried.size());
  for (TaskId t : s.tasks.carried) w.u32(t);
  const std::size_t n = s.engine.parent.size();
  w.u64(n);
  for (std::uint32_t v : s.engine.parent) w.u32(v);
  w.bytes(s.engine.rank.data(), s.engine.rank.size());
  for (std::uint32_t v : s.engine.label) w.u32(v);
  w.bytes(s.engine.visited.data(), s.engine.visited.size());
  w.u64(s.cells.size());
  for (const auto& [loc, cell] : s.cells) {
    w.u64(loc);
    w.u32(cell.read_sup);
    w.u32(cell.write_sup);
    w.u32(cell.epoch_task);
  }
  put_reports(w, s.undrained);
  put_report(w.out, s.first);
  w.u64(s.reports_total);
  w.u64(s.access_count);
}

/// Root of x's tree in a forest whose ranks rise toward the root, so the
/// walk ends within 256 steps.
std::uint32_t dsu_root(const SupremaEngine::State& e, std::uint32_t x) {
  while (e.parent[x] != x) x = e.parent[x];
  return x;
}

OnlineRaceDetector::State get_dsu(Reader& r) {
  OnlineRaceDetector::State s;
  s.tasks.task_count = r.u64();
  s.tasks.base = r.u64();
  if (s.tasks.task_count > kInvalidTask)
    reject("K006", "DSU task count out of range");
  if (s.tasks.base > s.tasks.task_count)
    reject("K007", "DSU task base beyond its task count");
  const std::size_t carried = r.count(4);
  s.tasks.carried.reserve(carried);
  for (std::size_t i = 0; i < carried; ++i) {
    const TaskId t = r.u32();
    if (t >= s.tasks.base || (i != 0 && s.tasks.carried.back() >= t))
      reject("K007", "DSU carried task ids must ascend below the base");
    s.tasks.carried.push_back(t);
  }
  const std::size_t n = r.count(10);  // 4+1+4+1 bytes per slot
  if (n != carried + (s.tasks.task_count - s.tasks.base))
    reject("K007", "DSU slot count disagrees with its task index");
  const auto valid_slot = [n](std::uint32_t v) {
    return v == kInvalidVertex || v < n;
  };
  s.engine.parent.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = r.u32();
    if (v >= n) reject("K007", "DSU parent names a missing slot");
    s.engine.parent.push_back(v);
  }
  const std::string_view rank = r.bytes(n);
  s.engine.rank.assign(rank.begin(), rank.end());
  s.engine.label.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = r.u32();
    if (v >= n) reject("K007", "DSU label names a missing slot");
    s.engine.label.push_back(v);
  }
  const std::string_view visited = r.bytes(n);
  s.engine.visited.assign(visited.begin(), visited.end());
  // Union by rank keeps every parent's rank above its child's; a forest
  // that breaks this can hold a cycle, on which a find never returns.
  for (std::size_t x = 0; x < n; ++x)
    if (s.engine.parent[x] != x &&
        s.engine.rank[s.engine.parent[x]] <= s.engine.rank[x])
      reject("K007", "DSU rank does not rise toward the root");
  // A set's label is one of its members (a join keeps the joiner's label).
  for (std::uint32_t x = 0; x < n; ++x)
    if (s.engine.parent[x] == x && dsu_root(s.engine, s.engine.label[x]) != x)
      reject("K007", "DSU label lies outside its set");
  const std::size_t cells = r.count(20);  // loc + three ids
  s.cells.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    const Loc loc = r.u64();
    ShadowCell cell;
    cell.read_sup = r.u32();
    cell.write_sup = r.u32();
    cell.epoch_task = r.u32();
    if (!valid_slot(cell.read_sup) || !valid_slot(cell.write_sup) ||
        !valid_slot(cell.epoch_task))
      reject("K007", "shadow cell names a missing slot");
    s.cells.emplace_back(loc, cell);
  }
  s.undrained = get_reports(r);
  s.first = get_report(r);
  s.reports_total = r.u64();
  s.access_count = r.u64();
  return s;
}

/// The lint gate passes the detector events by tasks on its line, so each
/// must hold a DSU slot that labels its own set: a slot below the base
/// must be carried, and a slot the DSU counts as joined is dropped by the
/// next compaction pass. Either would make the detector throw on the next
/// event by that task.
void check_line_has_slots(const TraceLintStream::Snapshot& lint,
                          const OnlineRaceDetector::State& dsu) {
  if (lint.task_count != dsu.tasks.task_count)
    reject("K007", "lint and DSU task counts disagree");
  LiveTaskIndex slots;  // get_dsu validated the image
  slots.import_state(LiveTaskIndex::State(dsu.tasks));
  for (const TraceLintStream::LineTask& t : lint.line) {
    const std::uint32_t slot = slots.row(t.id);
    if (slot == LiveTaskIndex::kNoRow)
      reject("K007", "lint line names a task the DSU dropped");
    if (dsu.engine.label[dsu_root(dsu.engine, slot)] != slot)
      reject("K007", "lint line names a task the DSU counts as joined");
  }
}

// ----------------------------------------------------------- whole blobs --

/// Frames, CRC-checks and opens `blob`; returns a reader over the payload.
Reader open_payload(std::string_view blob) {
  if (blob.size() < kHeaderBytes)
    reject("K001", "blob truncated before the fixed header");
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0)
    reject("K002", "bad magic or unsupported snapshot version");
  const std::uint32_t len = get_le<std::uint32_t>(blob.data() + 8);
  const std::uint32_t crc = get_le<std::uint32_t>(blob.data() + 12);
  if (blob.size() != kHeaderBytes + static_cast<std::size_t>(len))
    reject("K003", "payload length disagrees with the blob size");
  const std::string_view payload = blob.substr(kHeaderBytes);
  if (crc32c(payload.data(), len) != crc)
    reject("K004", "payload CRC32C mismatch");
  return Reader{ByteReader(payload)};
}

DetectionSession::State decode_payload(Reader& r, std::uint64_t& quota_bytes) {
  DetectionSession::State s;
  const std::uint64_t fed_bytes = r.u64();
  const std::uint8_t policy = r.u8();
  if (policy > static_cast<std::uint8_t>(ReportPolicy::kFirstOnly))
    reject("K006", "unknown report policy");
  s.policy = static_cast<ReportPolicy>(policy);
  quota_bytes = r.u64();
  if (quota_bytes == 0) reject("K006", "session quota out of range");
  s.max_pending_reports = r.u64();
  if (s.max_pending_reports == 0)
    reject("K006", "pending-report cap out of range");
  s.events_total = r.u64();
  s.decoder = get_decoder(r);
  if (fed_bytes != s.decoder.offset + s.decoder.buffer.size())
    reject("K007", "fed byte count disagrees with the decoder");
  s.lint = get_lint(r);
  s.detector = get_dsu(r);
  check_line_has_slots(s.lint, s.detector);
  s.pending = get_reports(r);
  if (r.in.remaining() != 0)
    reject("K005", "trailing bytes after the session state");
  return s;
}

}  // namespace

std::string snapshot_session(const DetectionSession& session,
                             std::size_t quota_bytes) {
  DetectionSession::State s = session.export_state();
  Writer w;
  w.u64(session.fed_bytes());
  w.u8(static_cast<std::uint8_t>(s.policy));
  w.u64(static_cast<std::uint64_t>(quota_bytes));
  w.u64(s.max_pending_reports);
  w.u64(s.events_total);
  put_decoder(w, s.decoder);
  put_lint(w, s.lint);
  put_dsu(w, s.detector);
  put_reports(w, s.pending);

  std::string blob;
  blob.reserve(kHeaderBytes + w.out.size());
  blob.append(kMagic, sizeof(kMagic));
  put_le(blob, static_cast<std::uint32_t>(w.out.size()));
  put_le(blob, crc32c(w.out.data(), w.out.size()));
  blob.append(w.out);
  return blob;
}

RestoreOutcome restore_session(const std::string& blob) {
  RestoreOutcome out;
  try {
    Reader r = open_payload(blob);
    DetectionSession::State s = decode_payload(r, out.quota_bytes);
    out.session = DetectionSession::restore(std::move(s));
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
