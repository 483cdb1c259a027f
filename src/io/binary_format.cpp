#include "io/binary_format.hpp"

#include <iterator>
#include <sstream>

namespace race2d {

namespace {

struct DecodeCodeInfo {
  const char* id;
  const char* slug;
};

/// One row per DecodeCode, in enumerator order.
constexpr DecodeCodeInfo kDecodeCodeTable[] = {
    {"B001", "bad-magic"},
    {"B002", "unsupported-version"},
    {"B003", "bad-header"},
    {"B004", "truncated-input"},
    {"B005", "chunk-crc-mismatch"},
    {"B006", "malformed-varint"},
    {"B007", "unknown-opcode"},
    {"B008", "task-id-out-of-range"},
    {"B009", "bad-frame-marker"},
    {"B010", "event-count-mismatch"},
    {"B011", "chunk-too-large"},
    {"B012", "trailing-bytes"},
    {"B013", "missing-trailer"},
    {"B014", "trailer-crc-mismatch"},
    {"B015", "bad-compressed-item"},
    {"B016", "bad-run-count"},
    {"B017", "bad-template-ref"},
    {"B018", "chunk-too-many-events"},
};
static_assert(std::size(kDecodeCodeTable) ==
                  static_cast<std::size_t>(DecodeCode::kChunkTooManyEvents) + 1,
              "one kDecodeCodeTable row per DecodeCode");

}  // namespace

const char* decode_code_id(DecodeCode code) {
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(kDecodeCodeTable) ? kDecodeCodeTable[i].id : "B???";
}

const char* decode_code_slug(DecodeCode code) {
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(kDecodeCodeTable) ? kDecodeCodeTable[i].slug
                                         : "unknown";
}

TraceDecodeError::TraceDecodeError(DecodeCode code, std::uint64_t byte_offset,
                                   const std::string& what)
    : ContractViolation([&] {
        std::ostringstream os;
        os << decode_code_id(code) << ' ' << decode_code_slug(code)
           << " at byte " << byte_offset << ": " << what;
        return os.str();
      }()),
      code_(code),
      byte_offset_(byte_offset) {}

}  // namespace race2d
