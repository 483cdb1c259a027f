// The little-endian byte codec under every binary format race2d speaks:
// R2DT traces (io/binary_format.hpp), service frames and payloads
// (service/protocol.hpp), snapshot blobs (service/snapshot.hpp) and spill
// files (compress/spill_tier.hpp). A fixed-width integer is written and
// read byte by byte here and nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace race2d {

/// Writes `v` as sizeof(T) little-endian bytes at `p`.
template <class T>
void put_le(char* p, T v) {
  static_assert(std::is_unsigned_v<T>, "put_le takes an unsigned integer");
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
}

/// Appends `v` to `out` as sizeof(T) little-endian bytes.
template <class T>
void put_le(std::string& out, T v) {
  char bytes[sizeof(T)];
  put_le(bytes, v);
  out.append(bytes, sizeof(T));
}

/// The sizeof(T)-byte little-endian integer at `p`.
template <class T>
T get_le(const void* p) {
  static_assert(std::is_unsigned_v<T>, "get_le yields an unsigned integer");
  const auto* q = static_cast<const unsigned char*>(p);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(q[i]) << (8 * i));
  return v;
}

/// Bounds-checked reader over a byte view. A read that would run past the
/// end returns false and consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  template <class T>
  bool get(T& v) {
    if (remaining() < sizeof(T)) return false;
    v = get_le<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  /// The next `n` bytes, as a view into the underlying bytes.
  bool take(std::size_t n, std::string_view& out) {
    if (remaining() < n) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// Every byte not read yet.
  std::string_view rest() {
    const std::string_view out = bytes_.substr(pos_);
    pos_ = bytes_.size();
    return out;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace race2d
