#include "io/binary_writer.hpp"

#include <ostream>
#include <sstream>

#include "compress/chunk_codec.hpp"
#include "io/binary_format.hpp"
#include "io/byte_codec.hpp"
#include "io/crc32c.hpp"
#include "io/varint.hpp"
#include "support/assert.hpp"

namespace race2d {

BinaryTraceWriter::BinaryTraceWriter(std::ostream& os,
                                     BinaryWriteOptions options)
    : os_(&os), options_(options) {
  R2D_REQUIRE(options_.chunk_payload_bytes > 0,
              "chunk payload target must be positive");
  std::string header(kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
  header.push_back(static_cast<char>(options_.compression == CompressionMode::kNone
                                         ? kBinaryTraceVersion
                                         : kBinaryTraceVersionCompressed));
  header.push_back('\0');  // flags
  header.push_back('\0');  // reserved
  header.push_back('\0');  // reserved
  os_->write(header.data(), static_cast<std::streamsize>(header.size()));
  bytes_written_ += header.size();
}

void BinaryTraceWriter::add(const TraceEvent& e) {
  R2D_REQUIRE(!finished_, "add() after finish()");
  append_event_delta(chunk_, e, delta_);
  if (options_.compression == CompressionMode::kRuns) chunk_raw_.push_back(e);
  ++chunk_events_;
  ++total_events_;
  if (chunk_.size() >= options_.chunk_payload_bytes) flush_chunk();
}

void BinaryTraceWriter::flush_chunk() {
  R2D_REQUIRE(!finished_, "flush_chunk() after finish()");
  if (chunk_events_ == 0) return;
  std::string payload;
  payload.reserve(chunk_.size() + kMaxVarintBytes);
  append_varint(payload, chunk_events_);
  payload += chunk_;

  std::uint8_t marker = kChunkMarker;
  if (options_.compression == CompressionMode::kRuns &&
      chunk_events_ <= kMaxCompressedChunkEvents) {
    std::string z =
        compress_chunk_payload(chunk_raw_.data(), chunk_raw_.size());
    if (z.size() < payload.size()) {
      payload = std::move(z);
      marker = kCompressedChunkMarker;
    }
  }
  chunk_raw_.clear();

  std::string frame;
  frame.reserve(payload.size() + 9);
  frame.push_back(static_cast<char>(marker));
  put_le(frame, static_cast<std::uint32_t>(payload.size()));
  put_le(frame, crc32c(payload.data(), payload.size()));
  frame += payload;
  os_->write(frame.data(), static_cast<std::streamsize>(frame.size()));
  bytes_written_ += frame.size();

  chunk_.clear();
  chunk_events_ = 0;
  delta_ = EventDeltaState{};
}

void BinaryTraceWriter::finish() {
  R2D_REQUIRE(!finished_, "finish() called twice");
  flush_chunk();
  std::string trailer;
  trailer.push_back(static_cast<char>(kTrailerMarker));
  std::string count;
  put_le(count, total_events_);
  trailer += count;
  put_le(trailer, crc32c(count.data(), count.size()));
  os_->write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  bytes_written_ += trailer.size();
  os_->flush();
  finished_ = true;
}

void write_trace_binary(std::ostream& os, const Trace& trace,
                        BinaryWriteOptions options) {
  BinaryTraceWriter writer(os, options);
  for (const TraceEvent& e : trace) writer.add(e);
  writer.finish();
}

std::string trace_to_binary(const Trace& trace, BinaryWriteOptions options) {
  std::ostringstream os;
  write_trace_binary(os, trace, options);
  return os.str();
}

}  // namespace race2d
