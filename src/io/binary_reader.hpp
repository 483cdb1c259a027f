// Streaming decoders for the binary trace wire format.
//
// Two layers, matching the two ingest shapes the system has:
//
//  * BinaryTraceDecoder — PUSH: feed() arbitrary byte slices as they arrive
//    (a socket read, a service FEED frame). Decoded events go to an
//    EventSink one at a time, in stream order, as each is decoded, and the
//    sink may stop decoding on the spot; a second overload appends them to
//    a caller-owned vector instead. Only the current partial frame (and a
//    run template, below) is buffered, so a session's resident decode state
//    is O(chunk) no matter how long the stream runs. This is the
//    DetectionService's ingest core.
//
//  * BinaryTraceReader — PULL: a TraceEventSource over an std::istream,
//    built on the push decoder with a fixed block buffer. This is what the
//    batch tools (read_trace_binary, race2d_convert) use.
//
// Both reject every malformed input with TraceDecodeError: a stable code
// (B001–B018) plus the absolute byte offset. A chunk whose CRC32C fails is
// rejected before any of its bytes are interpreted, so corruption cannot
// leak half-decoded events into a detector. Past the CRC, a chunk's events
// are emitted as they decode, so a sink sees every event that precedes a
// malformed one in the same chunk.
//
// Events are decoded on one of two paths. An event in a 'C' chunk or a
// 'Z' literal item that starts at least 21 bytes (an opcode and two
// maximal varints) before the end of its payload cannot run past it, so
// it takes a fast path with no per-byte bounds checks that decodes 1–2-byte
// varints inline. Everything else — a longer varint, the payload's tail,
// run templates, and every malformed form — takes the checked path, which
// is therefore the only one that reports an error: every code and offset
// is the same as if the fast path did not exist. The fast path pays off
// when task and location deltas mostly stay within ±2^13, as in traces
// that number locations densely; where they mostly do not (scattered heap
// addresses, say) each event first tries and abandons it, at a measured
// cost (EXPERIMENTS.md E21, BM_WideDeltaDecode). A frame that arrives in
// pieces is assembled in an exactly sized buffer before it is decoded.
//
// Version-2 'Z' chunks decode natively, and run compression ends here:
// every output sees every event of every run, one at a time, exactly as
// the version-1 encoding of the same trace would deliver them. A stationary
// run (one whose template leaves the delta registers unchanged, so every
// repetition decodes to the same events) is decoded once into a template
// buffer and its repetitions are passed on from there; any other run is
// re-decoded from its bytes against the moving registers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "io/binary_format.hpp"
#include "io/delta_codec.hpp"
#include "io/trace_source.hpp"
#include "runtime/trace.hpp"

namespace race2d {

/// Where BinaryTraceDecoder::feed sends decoded events, one at a time and
/// in stream order, runs expanded.
class EventSink {
 public:
  /// One decoded event. Returns false to stop decoding on the spot: the
  /// decoder then emits nothing more and refuses further use, as a
  /// poisoned one does.
  virtual bool accept(const TraceEvent& e) = 0;

 protected:
  ~EventSink() = default;
};

class BinaryTraceDecoder {
 public:
  BinaryTraceDecoder() = default;

  /// Consumes `size` bytes, passing every event completed by them to `sink`
  /// as it decodes. Returns false if the sink stopped decoding; the decoder
  /// is then stopped, and further feeds, finish() and export_state() are
  /// contract violations. Throws TraceDecodeError on malformed input; the
  /// decoder is then poisoned (further feeds rethrow a fresh error at the
  /// same offset).
  [[nodiscard]] bool feed(const void* data, std::size_t size,
                          EventSink& sink);

  /// The same decode loop, appending every event to `out`. `runs` is a
  /// shim that is never written: perfbench/src/ is its only user, and
  /// ROADMAP item 1 deletes it.
  void feed(const void* data, std::size_t size, std::vector<TraceEvent>& out,
            std::vector<DecodedRun>* runs = nullptr);

  /// Declares end-of-input. Throws kTruncatedInput / kMissingTrailer if the
  /// stream did not end exactly after a valid trailer.
  void finish();

  /// True once the trailer frame has been decoded and verified.
  bool done() const { return state_ == State::kDone; }

  std::uint64_t events_decoded() const { return events_decoded_; }
  std::uint64_t bytes_consumed() const { return offset_; }
  /// Bytes fed so far: those consumed plus the partial frame piece held in
  /// the buffer.
  std::uint64_t bytes_fed() const { return offset_ + buffer_.size(); }
  /// Bytes held resident: the current partial frame (<= header + largest
  /// frame) and the run template buffer. The quota accounting of a
  /// detection session charges these.
  std::size_t buffered_bytes() const {
    return buffer_.size() + run_template_.capacity() * sizeof(TraceEvent);
  }

  /// Snapshot image of the push state machine: the phase, the partial
  /// frame's bytes, and the running totals. Poisoned and stopped decoders
  /// are not snapshottable (the owning session was poisoned first and a
  /// snapshot of it is refused). The size of the frame being collected is
  /// not stored: it follows from the phase (need()).
  struct Snapshot {
    std::uint8_t state = 0;  ///< State enumerator value; kPoisoned rejected
    std::vector<unsigned char> buffer;  ///< shorter than need(), empty if done
    std::uint32_t payload_len = 0;  ///< in the payload phase: 1..the cap
    std::uint32_t payload_crc = 0;
    std::uint64_t offset = 0;
    std::uint64_t events_decoded = 0;
    std::uint8_t version = kBinaryTraceVersion;  ///< header version (1|2)
    bool compressed = false;  ///< current frame is a 'Z' chunk (v2 only)

    /// Bytes the phase reads at once: the header, a marker, a chunk header,
    /// payload_len payload bytes, the trailer; 0 once done.
    std::size_t need() const;
  };
  Snapshot export_state() const;
  void import_state(Snapshot&& s);

 private:
  enum class State : std::uint8_t {
    kHeader,        ///< expecting the 8-byte file header
    kMarker,        ///< expecting a frame marker byte
    kChunkHeader,   ///< expecting payload_len + crc (8 bytes)
    kChunkPayload,  ///< expecting payload_len_ payload bytes
    kTrailer,       ///< expecting count + crc (12 bytes)
    kDone,          ///< trailer seen; any further byte is trailing garbage
    kPoisoned,      ///< a previous feed threw
    kStopped,       ///< the sink stopped a previous feed
  };

  [[noreturn]] void fail(DecodeCode code, std::uint64_t offset,
                         const std::string& what);
  /// The loops below are templates over their output (EventSink, or the
  /// vector overload's inline sink); each returns false once it stops.
  template <class Out>
  bool feed_into(const void* data, std::size_t size, Out& out);
  template <class Out>
  bool process(const unsigned char* piece, std::size_t len, Out& out);
  template <class Out>
  bool decode_chunk(const unsigned char* p, std::size_t size, Out& out);
  template <class Out>
  bool decode_compressed_chunk(const unsigned char* p, std::size_t size,
                               Out& out);
  bool stop();
  /// Reads a varint of the chunk payload p[0..size) at `at`; errors point
  /// at offset_ + at.
  std::uint64_t chunk_varint(const unsigned char* p, std::size_t size,
                             std::size_t& at);
  void decode_header(const unsigned char* p);
  void decode_marker(const unsigned char* p);
  void decode_chunk_header(const unsigned char* p);
  /// Decodes one v1-delta event at p[pos]; errors point at err_base + pos.
  TraceEvent decode_event(const unsigned char* p, std::size_t size,
                          std::size_t& pos, EventDeltaState& regs,
                          std::uint64_t err_base);
  void decode_trailer(const unsigned char* p);

  State state_ = State::kHeader;
  std::vector<unsigned char> buffer_;  ///< bytes of the current frame piece
  /// First repetition of the run being decoded; a stationary run's other
  /// repetitions are passed on from it.
  std::vector<TraceEvent> run_template_;
  std::size_t need_ = kBinaryHeaderBytes;
  std::uint32_t payload_len_ = 0;
  std::uint32_t payload_crc_ = 0;
  std::uint64_t offset_ = 0;  ///< absolute offset of buffer_'s first byte
  std::uint64_t events_decoded_ = 0;
  std::uint8_t version_ = kBinaryTraceVersion;  ///< from the header (1|2)
  bool compressed_chunk_ = false;  ///< frame being decoded is a 'Z' chunk
  DecodeCode poison_code_ = DecodeCode::kTruncatedInput;
  std::uint64_t poison_offset_ = 0;
  std::string poison_what_;
};

/// Pull-style binary reader over a stream; O(block + chunk) resident.
class BinaryTraceReader : public TraceEventSource {
 public:
  explicit BinaryTraceReader(std::istream& is);
  bool next(TraceEvent& out) override;

  std::uint64_t events_decoded() const { return decoder_.events_decoded(); }
  std::uint64_t bytes_consumed() const { return decoder_.bytes_consumed(); }

 private:
  std::istream* is_;
  BinaryTraceDecoder decoder_;
  std::vector<TraceEvent> pending_;
  std::size_t pending_pos_ = 0;
  bool eof_ = false;
};

/// Batch drivers. read/decode are purely syntactic (codes B001–B018);
/// load_trace_binary additionally runs the trace linter, mirroring
/// load_trace_text.
Trace read_trace_binary(std::istream& is);
Trace trace_from_binary(const std::string& bytes);
Trace load_trace_binary(std::istream& is);

/// Format sniffing for tools that accept either representation: peeks (and
/// puts back) up to 4 bytes and reports whether they are the binary magic.
bool sniff_binary_trace(std::istream& is);

}  // namespace race2d
