#include "io/binary_reader.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <sstream>

#include "io/byte_codec.hpp"
#include "io/crc32c.hpp"
#include "io/varint.hpp"
#include "support/assert.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

namespace {

/// The longest well-formed event: an opcode and two maximal varints. An
/// event that starts this far before the end of its payload lies wholly
/// inside it, so decoding it needs no bounds checks.
constexpr std::size_t kMaxEventBytes = 1 + 2 * kMaxVarintBytes;

/// Reads a canonical 1- or 2-byte varint at `q` into `v` and returns its
/// length, or 0 for anything longer or overlong.
inline std::size_t short_varint(const unsigned char* q, std::uint64_t& v) {
  if (q[0] < 0x80) {
    v = q[0];
    return 1;
  }
  if (q[1] == 0 || q[1] >= 0x80) return 0;
  v = (q[0] & 0x7Fu) | static_cast<std::uint64_t>(q[1]) << 7;
  return 2;
}

/// Applies a zigzag task delta; false when the result leaves the id range.
inline bool shift_task(TaskId prev, std::uint64_t delta, TaskId& out) {
  const std::int64_t v = static_cast<std::int64_t>(prev) + zigzag_decode(delta);
  if (v < 0 || v >= static_cast<std::int64_t>(kInvalidTask)) return false;
  out = static_cast<TaskId>(v);
  return true;
}

/// Formats an error message from its parts. The decode loops' error paths
/// call it rather than formatting inline, so their two instantiations
/// share one copy of the formatting code.
template <class... Parts>
[[gnu::noinline]] std::string message(Parts... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

std::string run_overflow(std::uint64_t reps, std::uint64_t m,
                         std::uint64_t count) {
  return message("run of ", reps, " x ", m, " event(s) expands past ",
                 "the chunk's declared count of ", count);
}

/// The unchecked form of BinaryTraceDecoder::decode_event, looped: passes
/// up to `n` events from p[pos] to `out` while each starts at least
/// kMaxEventBytes before `size`, and returns how many it passed. It takes
/// only 1–2-byte varints and formats no errors: it stops before an event
/// with a longer varint, an unknown opcode or an out-of-range task id,
/// leaving `pos` and `regs` at that event, so the checked path decodes or
/// rejects it with the same code and offset as always. It also stops,
/// clearing `go`, right after an event `out` refused.
template <class Out>
std::uint64_t decode_fast(const unsigned char* p, std::size_t size,
                          std::size_t& pos, std::uint64_t n,
                          EventDeltaState& regs, Out& out, bool& go) {
  std::uint64_t done = 0;
  while (done < n && size - pos >= kMaxEventBytes) {
    const unsigned char* q = p + pos;
    TraceEvent e{};
    e.op = static_cast<TraceOp>(*q++);
    std::uint64_t v = 0;
    std::size_t len = short_varint(q, v);
    if (len == 0 || !shift_task(regs.prev_actor, v, e.actor)) return done;
    q += len;
    // Each case commits to `regs` only past its last way to decline.
    switch (e.op) {
      case TraceOp::kFork:
      case TraceOp::kJoin:
        len = short_varint(q, v);
        if (len == 0 || !shift_task(regs.prev_other, v, e.other)) return done;
        q += len;
        regs.prev_other = e.other;
        break;
      case TraceOp::kHalt:
      case TraceOp::kSync:
      case TraceOp::kFinishBegin:
      case TraceOp::kFinishEnd:
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
      case TraceOp::kRetire:
        len = short_varint(q, v);
        if (len == 0) return done;
        q += len;
        e.loc = regs.prev_loc += static_cast<Loc>(zigzag_decode(v));
        break;
      case TraceOp::kAcquire:
      case TraceOp::kRelease:
        len = short_varint(q, v);
        if (len == 0) return done;
        q += len;
        e.loc = regs.prev_sync += static_cast<Loc>(zigzag_decode(v));
        break;
      default:
        return done;  // unknown opcode
    }
    regs.prev_actor = e.actor;
    pos = static_cast<std::size_t>(q - p);
    ++done;
    if (!out.accept(e)) {
      go = false;
      break;
    }
  }
  return done;
}

/// The vector overload's output: appends every event to `out`. It never
/// stops decoding, and its calls inline into the decode loops.
struct VectorSink {
  std::vector<TraceEvent>& out;

  bool accept(const TraceEvent& e) {
    out.push_back(e);
    return true;
  }
};

/// Reserves room for a chunk's declared events (at least two bytes each,
/// so the payload caps what a forged count can claim), growing
/// geometrically so a frame of many chunks does not reallocate per chunk.
void reserve_events(VectorSink& sink, std::uint64_t count,
                    std::size_t payload_bytes) {
  std::vector<TraceEvent>& out = sink.out;
  const std::size_t want =
      out.size() + static_cast<std::size_t>(
                       std::min<std::uint64_t>(count, payload_bytes / 2));
  if (want > out.capacity()) out.reserve(std::max(want, 2 * out.capacity()));
}

/// An EventSink takes its events one at a time: nothing to reserve.
void reserve_events(EventSink&, std::uint64_t, std::size_t) {}

/// Passes `reps` more repetitions of a stationary run's template to `out`,
/// event by event; false once it stops.
bool repeat_events(EventSink& out, const std::vector<TraceEvent>& tmpl,
                   std::uint64_t reps) {
  for (std::uint64_t r = 0; r < reps; ++r)
    for (const TraceEvent& e : tmpl)
      if (!out.accept(e)) return false;
  return true;
}

/// A vector takes each repetition as one block copy: a push_back per event
/// decodes a run-heavy stream about 10% slower (EXPERIMENTS.md E26).
bool repeat_events(VectorSink& out, const std::vector<TraceEvent>& tmpl,
                   std::uint64_t reps) {
  for (std::uint64_t r = 0; r < reps; ++r)
    out.out.insert(out.out.end(), tmpl.begin(), tmpl.end());
  return true;
}

}  // namespace

void BinaryTraceDecoder::fail(DecodeCode code, std::uint64_t offset,
                              const std::string& what) {
  state_ = State::kPoisoned;
  poison_code_ = code;
  poison_offset_ = offset;
  poison_what_ = what;
  throw TraceDecodeError(code, offset, what);
}

void BinaryTraceDecoder::decode_header(const unsigned char* p) {
  if (std::memcmp(p, kBinaryTraceMagic, sizeof(kBinaryTraceMagic)) != 0)
    fail(DecodeCode::kBadMagic, offset_,
         "expected the R2DT binary trace magic");
  if (p[4] != kBinaryTraceVersion && p[4] != kBinaryTraceVersionCompressed) {
    std::ostringstream os;
    os << "format version " << static_cast<unsigned>(p[4])
       << " (this reader decodes versions "
       << static_cast<unsigned>(kBinaryTraceVersion) << " and "
       << static_cast<unsigned>(kBinaryTraceVersionCompressed) << ')';
    fail(DecodeCode::kUnsupportedVersion, offset_ + 4, os.str());
  }
  if (p[5] != 0 || p[6] != 0 || p[7] != 0)
    fail(DecodeCode::kBadHeader, offset_ + 5,
         "reserved header bytes must be zero");
  version_ = p[4];
  state_ = State::kMarker;
  need_ = 1;
}

void BinaryTraceDecoder::decode_marker(const unsigned char* p) {
  if (*p == kChunkMarker) {
    compressed_chunk_ = false;
    state_ = State::kChunkHeader;
    need_ = 8;
  } else if (*p == kCompressedChunkMarker &&
             version_ == kBinaryTraceVersionCompressed) {
    compressed_chunk_ = true;
    state_ = State::kChunkHeader;
    need_ = 8;
  } else if (*p == kTrailerMarker) {
    state_ = State::kTrailer;
    need_ = 12;
  } else {
    std::ostringstream os;
    if (*p == kCompressedChunkMarker)
      os << "compressed chunk marker 'Z' is not legal in a version-1 stream";
    else
      os << "frame marker byte " << static_cast<unsigned>(*p)
         << " is neither 'C' nor 'E'"
         << (version_ == kBinaryTraceVersionCompressed ? " nor 'Z'" : "");
    fail(DecodeCode::kBadFrameMarker, offset_, os.str());
  }
}

void BinaryTraceDecoder::decode_chunk_header(const unsigned char* p) {
  payload_len_ = get_le<std::uint32_t>(p);
  payload_crc_ = get_le<std::uint32_t>(p + 4);
  if (payload_len_ > kMaxChunkPayload) {
    std::ostringstream os;
    os << "chunk payload of " << payload_len_ << " bytes exceeds the "
       << kMaxChunkPayload << "-byte cap";
    fail(DecodeCode::kChunkTooLarge, offset_, os.str());
  }
  if (payload_len_ == 0)
    fail(DecodeCode::kEventCountMismatch, offset_,
         "chunk payload is empty (the writer never emits empty chunks)");
  state_ = State::kChunkPayload;
  need_ = payload_len_;
}

TraceEvent BinaryTraceDecoder::decode_event(const unsigned char* p,
                                            std::size_t size, std::size_t& pos,
                                            EventDeltaState& regs,
                                            std::uint64_t err_base) {
  const auto varint_or_fail = [&](std::size_t& at) -> std::uint64_t {
    std::uint64_t v = 0;
    const VarintStatus status = decode_varint(p, size, at, v);
    if (status == VarintStatus::kOk) return v;
    fail(DecodeCode::kMalformedVarint, err_base + at,
         status == VarintStatus::kTruncated
             ? "varint cut off by the end of the chunk payload"
             : "overlong (non-canonical) varint");
  };
  const auto task_or_fail = [&](std::size_t& at, TaskId prev,
                                const char* field) -> TaskId {
    const std::size_t field_at = at;
    const std::int64_t v =
        static_cast<std::int64_t>(prev) + zigzag_decode(varint_or_fail(at));
    if (v < 0 || v >= static_cast<std::int64_t>(kInvalidTask)) {
      std::ostringstream os;
      os << field << " delta decodes to " << v
         << ", outside the task id range";
      fail(DecodeCode::kTaskIdOutOfRange, err_base + field_at, os.str());
    }
    return static_cast<TaskId>(v);
  };

  const unsigned char opcode = p[pos++];
  if (opcode > static_cast<unsigned char>(TraceOp::kRelease)) {
    std::ostringstream os;
    os << "opcode " << static_cast<unsigned>(opcode)
       << " is not a trace event";
    fail(DecodeCode::kUnknownOpcode, err_base + pos - 1, os.str());
  }
  TraceEvent e{};
  e.op = static_cast<TraceOp>(opcode);
  switch (e.op) {
    case TraceOp::kFork:
    case TraceOp::kJoin:
      e.actor = task_or_fail(pos, regs.prev_actor, "actor");
      e.other = task_or_fail(pos, regs.prev_other, "fork/join target");
      regs.prev_actor = e.actor;
      regs.prev_other = e.other;
      break;
    case TraceOp::kHalt:
    case TraceOp::kSync:
    case TraceOp::kFinishBegin:
    case TraceOp::kFinishEnd:
      e.actor = task_or_fail(pos, regs.prev_actor, "actor");
      e.other = kInvalidTask;
      regs.prev_actor = e.actor;
      break;
    case TraceOp::kRead:
    case TraceOp::kWrite:
    case TraceOp::kRetire:
      e.actor = task_or_fail(pos, regs.prev_actor, "actor");
      e.other = kInvalidTask;
      e.loc = regs.prev_loc +
              static_cast<Loc>(zigzag_decode(varint_or_fail(pos)));
      regs.prev_actor = e.actor;
      regs.prev_loc = e.loc;
      break;
    case TraceOp::kAcquire:
    case TraceOp::kRelease:
      // Sync-object ids keep their own delta register, mirroring the
      // writer; lock-free chunks therefore decode byte-for-byte as before.
      e.actor = task_or_fail(pos, regs.prev_actor, "actor");
      e.other = kInvalidTask;
      e.loc = regs.prev_sync +
              static_cast<Loc>(zigzag_decode(varint_or_fail(pos)));
      regs.prev_actor = e.actor;
      regs.prev_sync = e.loc;
      break;
  }
  return e;
}

std::uint64_t BinaryTraceDecoder::chunk_varint(const unsigned char* p,
                                               std::size_t size,
                                               std::size_t& at) {
  std::uint64_t v = 0;
  const VarintStatus status = decode_varint(p, size, at, v);
  if (status != VarintStatus::kOk)
    fail(DecodeCode::kMalformedVarint, offset_ + at,
         status == VarintStatus::kTruncated
             ? "varint cut off by the end of the chunk payload"
             : "overlong (non-canonical) varint");
  return v;
}

bool BinaryTraceDecoder::stop() {
  state_ = State::kStopped;
  return false;
}

template <class Out>
bool BinaryTraceDecoder::decode_chunk(const unsigned char* p, std::size_t size,
                                      Out& out) {
  if (crc32c(p, size) != payload_crc_)
    fail(DecodeCode::kChunkCrcMismatch, offset_,
         "chunk payload fails its CRC32C (corrupt or bit-flipped chunk)");

  std::size_t pos = 0;
  const std::uint64_t count = chunk_varint(p, size, pos);

  // Per-chunk delta state (the writer resets it at every chunk boundary so
  // chunks decode independently).
  EventDeltaState regs;
  reserve_events(out, count, size);
  bool go = true;
  for (std::uint64_t i = 0; i < count; ++i) {
    i += decode_fast(p, size, pos, count - i, regs, out, go);
    if (!go) return stop();
    if (i == count) break;
    if (pos >= size)
      fail(DecodeCode::kEventCountMismatch, offset_ + pos,
           message("chunk declares ", count,
                   " event(s) but its payload ends after ", i));
    if (!out.accept(decode_event(p, size, pos, regs, offset_))) return stop();
  }
  if (pos != size)
    fail(DecodeCode::kEventCountMismatch, offset_ + pos,
         message("chunk declares ", count, " event(s) but ", size - pos,
                 " payload byte(s) remain"));
  events_decoded_ += count;
  state_ = State::kMarker;
  need_ = 1;
  return true;
}

template <class Out>
bool BinaryTraceDecoder::decode_compressed_chunk(const unsigned char* p,
                                                 std::size_t size, Out& out) {
  if (crc32c(p, size) != payload_crc_)
    fail(DecodeCode::kChunkCrcMismatch, offset_,
         "chunk payload fails its CRC32C (corrupt or bit-flipped chunk)");

  std::size_t pos = 0;
  const std::uint64_t count = chunk_varint(p, size, pos);
  if (count == 0)
    fail(DecodeCode::kEventCountMismatch, offset_,
         "compressed chunk declares zero events");
  if (count > kMaxCompressedChunkEvents)
    fail(DecodeCode::kChunkTooManyEvents, offset_,
         message("compressed chunk declares ", count, " event(s), above the ",
                 kMaxCompressedChunkEvents, "-event expansion cap"));

  // The per-chunk template dictionary: byte spans into this payload, in
  // definition order. `stationary` caches whether one replay leaves the
  // delta registers unchanged — register evolution is linear in the replay
  // count, so the flag is start-state independent and safe to reuse.
  struct DictEntry {
    std::size_t start = 0;
    std::size_t bytes = 0;
    std::uint32_t events = 0;
    bool stationary = false;
  };
  std::vector<DictEntry> dict;

  EventDeltaState regs;  // persists across items; resets at chunk boundary
  std::uint64_t expanded = 0;
  reserve_events(out, count, size);
  while (pos < size) {
    const std::uint64_t item_at = offset_ + pos;
    const unsigned char tag = p[pos++];
    if (tag == kItemLiteral) {
      const std::uint64_t n = chunk_varint(p, size, pos);
      if (n == 0)
        fail(DecodeCode::kBadCompressedItem, item_at,
             "literal item carries zero events");
      if (n > count - expanded)
        fail(DecodeCode::kBadRunCount, item_at,
             message("literal item of ", n, " event(s) expands past the ",
                     "chunk's declared count of ", count));
      bool go = true;
      for (std::uint64_t i = 0; i < n; ++i) {
        i += decode_fast(p, size, pos, n - i, regs, out, go);
        if (!go) return stop();
        if (i == n) break;
        if (pos >= size)
          fail(DecodeCode::kEventCountMismatch, offset_ + pos,
               "compressed chunk payload ends inside a literal item");
        if (!out.accept(decode_event(p, size, pos, regs, offset_)))
          return stop();
      }
      expanded += n;
      continue;
    }
    if (tag != kItemDefineRun && tag != kItemDictRun)
      fail(DecodeCode::kBadCompressedItem, item_at,
           message("unknown compressed item tag ",
                   static_cast<unsigned>(tag)));

    std::uint64_t reps = 0;
    std::size_t tstart = 0;
    std::size_t tbytes = 0;
    std::uint64_t m = 0;
    bool stationary = false;
    run_template_.clear();
    if (tag == kItemDefineRun) {
      reps = chunk_varint(p, size, pos);
      if (reps < 2)
        fail(DecodeCode::kBadRunCount, item_at,
             "define-run repeats its template fewer than twice");
      m = chunk_varint(p, size, pos);
      if (m == 0)
        fail(DecodeCode::kBadCompressedItem, item_at,
             "define-run template carries zero events");
      if (dict.size() >= kMaxChunkTemplates)
        fail(DecodeCode::kBadCompressedItem, item_at,
             "template defined past the per-chunk dictionary cap");
      if (reps > (count - expanded) / m)
        fail(DecodeCode::kBadRunCount, item_at,
             run_overflow(reps, m, count));
      // First repetition decodes straight out of the payload, measuring the
      // template's byte span and whether it is stationary.
      tstart = pos;
      const EventDeltaState before = regs;
      for (std::uint64_t i = 0; i < m; ++i) {
        if (pos >= size)
          fail(DecodeCode::kEventCountMismatch, offset_ + pos,
               "compressed chunk payload ends inside a run template");
        run_template_.push_back(decode_event(p, size, pos, regs, offset_));
        if (!out.accept(run_template_.back())) return stop();
      }
      tbytes = pos - tstart;
      stationary = regs.prev_actor == before.prev_actor &&
                   regs.prev_other == before.prev_other &&
                   regs.prev_loc == before.prev_loc &&
                   regs.prev_sync == before.prev_sync;
      dict.push_back({tstart, tbytes, static_cast<std::uint32_t>(m),
                      stationary});
    } else {
      const std::uint64_t id = chunk_varint(p, size, pos);
      reps = chunk_varint(p, size, pos);
      if (reps == 0)
        fail(DecodeCode::kBadRunCount, item_at,
             "dictionary run repeats its template zero times");
      if (id >= dict.size())
        fail(DecodeCode::kBadTemplateRef, item_at,
             message("run names template ", id, " but only ", dict.size(),
                     " are defined"));
      const DictEntry& entry = dict[id];
      tstart = entry.start;
      tbytes = entry.bytes;
      m = entry.events;
      stationary = entry.stationary;
      if (reps > (count - expanded) / m)
        fail(DecodeCode::kBadRunCount, item_at,
             run_overflow(reps, m, count));
      // First repetition replays the template span against the live
      // registers. Varint lengths are structural, so the replay consumes
      // exactly the validated span; only B008 range checks can still fire.
      std::size_t tp = tstart;
      for (std::uint64_t i = 0; i < m; ++i) {
        run_template_.push_back(
            decode_event(p, tstart + tbytes, tp, regs, offset_));
        if (!out.accept(run_template_.back())) return stop();
      }
    }

    // A stationary run's repetitions all decode to its first one, so they
    // are passed on from the template buffer; any other run is replayed
    // from its bytes against the moving registers.
    if (stationary) {
      if (!repeat_events(out, run_template_, reps - 1)) return stop();
    } else {
      for (std::uint64_t r = 1; r < reps; ++r) {
        std::size_t tp = tstart;
        for (std::uint64_t i = 0; i < m; ++i)
          if (!out.accept(decode_event(p, tstart + tbytes, tp, regs, offset_)))
            return stop();
      }
    }
    expanded += reps * m;
  }
  if (expanded != count)
    fail(DecodeCode::kEventCountMismatch, offset_ + pos,
         message("compressed chunk declares ", count,
                 " event(s) but its items expand to ", expanded));
  events_decoded_ += count;
  compressed_chunk_ = false;
  state_ = State::kMarker;
  need_ = 1;
  return true;
}

void BinaryTraceDecoder::decode_trailer(const unsigned char* p) {
  if (crc32c(p, 8) != get_le<std::uint32_t>(p + 8))
    fail(DecodeCode::kTrailerCrcMismatch, offset_,
         "trailer event count fails its CRC32C");
  const auto total = get_le<std::uint64_t>(p);
  if (total != events_decoded_) {
    std::ostringstream os;
    os << "trailer declares " << total << " event(s) but the chunks carried "
       << events_decoded_;
    fail(DecodeCode::kEventCountMismatch, offset_, os.str());
  }
  state_ = State::kDone;
  need_ = 0;
}

template <class Out>
bool BinaryTraceDecoder::process(const unsigned char* piece, std::size_t len,
                                 Out& out) {
  switch (state_) {
    case State::kHeader:       decode_header(piece); break;
    case State::kMarker:       decode_marker(piece); break;
    case State::kChunkHeader:  decode_chunk_header(piece); break;
    case State::kChunkPayload:
      if (!(compressed_chunk_ ? decode_compressed_chunk(piece, len, out)
                              : decode_chunk(piece, len, out)))
        return false;
      break;
    case State::kTrailer:      decode_trailer(piece); break;
    case State::kDone:
    case State::kPoisoned:
    case State::kStopped:
      break;  // unreachable: feed() never dispatches these states
  }
  offset_ += len;
  return true;
}

template <class Out>
bool BinaryTraceDecoder::feed_into(const void* data, std::size_t size,
                                   Out& out) {
  if (state_ == State::kPoisoned)
    throw TraceDecodeError(poison_code_, poison_offset_, poison_what_);
  R2D_REQUIRE(state_ != State::kStopped,
              "feed: the sink stopped this decoder");
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t n = size;

  while (true) {
    if (state_ == State::kDone) {
      if (n > 0)
        fail(DecodeCode::kTrailingBytes, offset_,
             "bytes after the trailer frame");
      break;
    }
    if (buffer_.empty() && n >= need_) {
      // Fast path: the whole piece is already in the caller's slice —
      // decode in place, no accumulation copy.
      const unsigned char* piece = p;
      const std::size_t len = need_;
      p += len;
      n -= len;
      if (!process(piece, len, out)) return false;
      continue;
    }
    if (n == 0) break;
    const std::size_t take = std::min(n, need_ - buffer_.size());
    if (buffer_.size() + take == need_) buffer_.reserve(need_);
    buffer_.insert(buffer_.end(), p, p + take);
    p += take;
    n -= take;
    if (buffer_.size() == need_) {
      // The piece is decoded from an exactly sized buffer: nothing stays
      // resident past the accounted bytes, and a sanitizer sees any read
      // past the piece. Move out of buffer_ before processing: decode_*
      // never re-enters.
      buffer_.shrink_to_fit();
      std::vector<unsigned char> piece;
      piece.swap(buffer_);
      if (!process(piece.data(), piece.size(), out)) return false;
    }
  }
  return true;
}

bool BinaryTraceDecoder::feed(const void* data, std::size_t size,
                              EventSink& sink) {
  return feed_into(data, size, sink);
}

void BinaryTraceDecoder::feed(const void* data, std::size_t size,
                              std::vector<TraceEvent>& out,
                              std::vector<DecodedRun>* /*runs*/) {
  VectorSink sink{out};
  (void)feed_into(data, size, sink);  // a VectorSink never stops
}

std::size_t BinaryTraceDecoder::Snapshot::need() const {
  switch (static_cast<State>(state)) {
    case State::kHeader:       return kBinaryHeaderBytes;
    case State::kMarker:       return 1;
    case State::kChunkHeader:  return 8;
    case State::kChunkPayload: return payload_len;
    case State::kTrailer:      return 12;
    case State::kDone:
    case State::kPoisoned:
    case State::kStopped:
      break;
  }
  return 0;
}

BinaryTraceDecoder::Snapshot BinaryTraceDecoder::export_state() const {
  R2D_REQUIRE(state_ != State::kPoisoned && state_ != State::kStopped,
              "a poisoned or stopped decoder has no snapshottable state");
  Snapshot s;
  s.state = static_cast<std::uint8_t>(state_);
  s.buffer = buffer_;
  s.payload_len = payload_len_;
  s.payload_crc = payload_crc_;
  s.offset = offset_;
  s.events_decoded = events_decoded_;
  s.version = version_;
  s.compressed = compressed_chunk_;
  return s;
}

void BinaryTraceDecoder::import_state(Snapshot&& s) {
  R2D_REQUIRE(s.state < static_cast<std::uint8_t>(State::kPoisoned),
              "snapshot names an invalid decoder state");
  R2D_REQUIRE(static_cast<State>(s.state) != State::kChunkPayload ||
                  (s.payload_len != 0 && s.payload_len <= kMaxChunkPayload),
              "snapshot names an invalid chunk payload length");
  R2D_REQUIRE(s.buffer.empty() || s.buffer.size() < s.need(),
              "snapshot buffer does not fit the frame it is accumulating");
  R2D_REQUIRE(s.version == kBinaryTraceVersion ||
                  s.version == kBinaryTraceVersionCompressed,
              "snapshot names an unknown wire format version");
  R2D_REQUIRE(!s.compressed || s.version == kBinaryTraceVersionCompressed,
              "snapshot marks a compressed chunk in a version-1 stream");
  state_ = static_cast<State>(s.state);
  buffer_ = std::move(s.buffer);
  need_ = s.need();
  payload_len_ = s.payload_len;
  payload_crc_ = s.payload_crc;
  offset_ = s.offset;
  events_decoded_ = s.events_decoded;
  version_ = s.version;
  compressed_chunk_ = s.compressed;
}

void BinaryTraceDecoder::finish() {
  if (state_ == State::kPoisoned)
    throw TraceDecodeError(poison_code_, poison_offset_, poison_what_);
  R2D_REQUIRE(state_ != State::kStopped,
              "finish: the sink stopped this decoder");
  if (state_ == State::kDone) return;
  const std::uint64_t at = offset_ + buffer_.size();
  if (state_ == State::kMarker && buffer_.empty())
    fail(DecodeCode::kMissingTrailer, at,
         "input ends without a trailer frame");
  const char* where = "input ends inside a frame";
  switch (state_) {
    case State::kHeader:
      where = at == 0 ? "empty input (not even a header)"
                      : "input ends inside the 8-byte header";
      break;
    case State::kChunkHeader:
      where = "input ends inside a chunk frame header";
      break;
    case State::kChunkPayload:
      where = "input ends inside a chunk payload";
      break;
    case State::kTrailer:
      where = "input ends inside the trailer";
      break;
    case State::kMarker:
    case State::kDone:
    case State::kPoisoned:
    case State::kStopped:
      break;
  }
  fail(DecodeCode::kTruncatedInput, at, where);
}

BinaryTraceReader::BinaryTraceReader(std::istream& is) : is_(&is) {}

bool BinaryTraceReader::next(TraceEvent& out) {
  while (pending_pos_ >= pending_.size()) {
    if (eof_) return false;
    pending_.clear();
    pending_pos_ = 0;
    char block[64 * 1024];
    is_->read(block, sizeof(block));
    const std::streamsize got = is_->gcount();
    if (got > 0)
      decoder_.feed(block, static_cast<std::size_t>(got), pending_);
    if (is_->eof()) {
      decoder_.finish();
      eof_ = true;
    } else if (!is_->good()) {
      throw TraceDecodeError(DecodeCode::kTruncatedInput,
                             decoder_.bytes_consumed(),
                             "I/O error while reading the trace stream");
    }
  }
  out = pending_[pending_pos_++];
  return true;
}

Trace read_trace_binary(std::istream& is) {
  BinaryTraceReader reader(is);
  return reader.drain();
}

Trace trace_from_binary(const std::string& bytes) {
  BinaryTraceDecoder decoder;
  Trace trace;
  decoder.feed(bytes.data(), bytes.size(), trace);
  decoder.finish();
  return trace;
}

Trace load_trace_binary(std::istream& is) {
  Trace trace = read_trace_binary(is);
  require_lint_clean(trace);
  return trace;
}

bool sniff_binary_trace(std::istream& is) {
  // One peeked byte suffices: every text-format line starts with a
  // lowercase op name, '#', or whitespace — never the magic's 'R'.
  return is.peek() == kBinaryTraceMagic[0];
}

}  // namespace race2d
