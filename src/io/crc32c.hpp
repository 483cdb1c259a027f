// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// per-chunk checksum of the binary trace wire format. On x86-64 CPUs with
// SSE4.2 it runs on the crc32 instruction, chosen once at run time; every
// other build runs the portable slice-by-8 table, which is also the
// reference the hardware path is tested against. Both give the same value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace race2d {

/// CRC32C of `size` bytes starting at `data`, seeded with `crc` (pass 0 for
/// a fresh checksum; chain calls to checksum discontiguous pieces).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

/// The slice-by-8 table implementation, on every platform.
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t crc = 0);

/// True when crc32c() runs on the SSE4.2 crc32 instruction.
bool crc32c_uses_hardware();

}  // namespace race2d
