#include "util/crc32.h"

#include <array>

#include "util/simd.h"

namespace setcover {
namespace {

/// Slicing-by-8 tables: table[0] is the classic one-byte table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables(uint32_t polynomial) {
  SliceTables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (polynomial ^ (c >> 1)) : (c >> 1);
    }
    table[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t c = table[k - 1][i];
      table[k][i] = table[0][c & 0xFFu] ^ (c >> 8);
    }
  }
  return table;
}

uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

uint32_t TableCrc(const SliceTables& table, const void* data, size_t bytes,
                  uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; bytes > 0; ++p, --bytes) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32(const void* data, size_t bytes, uint32_t seed) {
  static const SliceTables kTables = BuildTables(0xEDB88320u);
  return TableCrc(kTables, data, bytes, seed);
}

uint32_t Crc32cPortable(const void* data, size_t bytes, uint32_t seed) {
  static const SliceTables kTables = BuildTables(0x82F63B78u);
  return TableCrc(kTables, data, bytes, seed);
}

uint32_t Crc32c(const void* data, size_t bytes, uint32_t seed) {
  // The SSE4.2 crc32-instruction implementation lives in util/simd.cc
  // (the single home for intrinsics); the kernel table picks it exactly
  // when the CPU supports it, so values are identical on every tier.
  return simd::Active().crc32c(data, bytes, seed);
}

}  // namespace setcover
