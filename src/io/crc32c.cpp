#include "io/crc32c.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "io/byte_codec.hpp"

namespace race2d {

namespace {

/// 8 tables of 256 entries: table[0] is the classic byte-at-a-time table,
/// table[k] advances a byte through k additional zero bytes, which lets the
/// hot loop fold 8 input bytes per iteration.
struct Crc32cTables {
  std::uint32_t t[8][256];
};

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

Crc32cTables build_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kPoly : 0);
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xFF] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

const Crc32cTables& tables() {
  static const Crc32cTables t = build_tables();
  return t;
}

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

#if defined(__x86_64__)
/// The crc32 instruction computes the same reflected Castagnoli CRC, eight
/// bytes per step; x86 is little-endian, so an 8-byte load is the bytes in
/// stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    size -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (size-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}
#endif

Crc32cFn pick_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

Crc32cFn crc32c_impl() {
  static const Crc32cFn fn = pick_crc32c();
  return fn;
}

}  // namespace

std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Crc32cTables& tb = tables();
  crc = ~crc;
  while (size >= 8) {
    // Little-endian-agnostic byte loads; the compiler fuses them.
    const std::uint32_t lo = crc ^ get_le<std::uint32_t>(p);
    const auto hi = get_le<std::uint32_t>(p + 4);
    crc = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
          tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xFF] ^ tb.t[2][(hi >> 8) & 0xFF] ^
          tb.t[1][(hi >> 16) & 0xFF] ^ tb.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) crc = tb.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) {
  return crc32c_impl()(data, size, crc);
}

bool crc32c_uses_hardware() { return crc32c_impl() != crc32c_portable; }

}  // namespace race2d
