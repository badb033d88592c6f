#include "util/crc32.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace setcover {
namespace {

TEST(Crc32Test, MatchesKnownVectors) {
  // The canonical check value for CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const std::string data =
      "one-pass edge-arrival streaming set cover checkpoints";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t prefix = Crc32(data.data(), cut);
    uint32_t rest = Crc32(data.data() + cut, data.size() - cut, prefix);
    EXPECT_EQ(rest, whole) << "cut at " << cut;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  uint8_t buffer[64];
  for (size_t i = 0; i < sizeof buffer; ++i)
    buffer[i] = uint8_t(i * 37 + 11);
  const uint32_t clean = Crc32(buffer, sizeof buffer);
  for (size_t byte = 0; byte < sizeof buffer; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buffer[byte] ^= uint8_t(1u << bit);
      EXPECT_NE(Crc32(buffer, sizeof buffer), clean)
          << "flip at byte " << byte << " bit " << bit;
      buffer[byte] ^= uint8_t(1u << bit);
    }
  }
}

/// One byte per step, straight from the reflected polynomial: the
/// reference the sliced tables must reproduce.
uint32_t BytewiseCrc(uint32_t polynomial, const uint8_t* data, size_t bytes,
                     uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < bytes; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (polynomial ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> NoiseBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (uint8_t& byte : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = uint8_t(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, SlicedTablesMatchBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> noise = NoiseBytes((1u << 20) + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = noise.data() + offset;
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(data, len), BytewiseCrc(0xEDB88320u, data, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32cPortable(data, len),
                BytewiseCrc(0x82F63B78u, data, len, 0))
          << "offset " << offset << " len " << len;
    }
    EXPECT_EQ(Crc32(data, 1u << 20),
              BytewiseCrc(0xEDB88320u, data, 1u << 20, 0))
        << "offset " << offset << " 1 MiB";
    EXPECT_EQ(Crc32cPortable(data, 1u << 20),
              BytewiseCrc(0x82F63B78u, data, 1u << 20, 0))
        << "offset " << offset << " 1 MiB";
  }
}

TEST(Crc32Test, SlicedTablesMatchBytewiseWhenChained) {
  const std::vector<uint8_t> noise = NoiseBytes(4096);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (const size_t cut : {size_t(0), size_t(1), size_t(7), size_t(8),
                             size_t(9), size_t(299), size_t(4000)}) {
      const uint8_t* data = noise.data() + offset;
      const size_t rest = noise.size() - offset - cut;
      const uint32_t head = BytewiseCrc(0xEDB88320u, data, cut, 0);
      ASSERT_EQ(Crc32(data, cut), head);
      EXPECT_EQ(Crc32(data + cut, rest, head),
                BytewiseCrc(0xEDB88320u, data + cut, rest, head))
          << "offset " << offset << " cut " << cut;
      // An arbitrary seed chains the same way as one from a prefix.
      EXPECT_EQ(Crc32(data, rest, 0xDEADBEEFu),
                BytewiseCrc(0xEDB88320u, data, rest, 0xDEADBEEFu))
          << "offset " << offset << " cut " << cut;
    }
  }
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // The canonical check value for CRC-32C (Castagnoli).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, HardwareDispatchMatchesPortableTable) {
  // Whatever Crc32c dispatches to (SSE4.2 or the table) must agree with
  // the portable implementation on every length and alignment — v3
  // files written on one machine must verify on any other.
  uint8_t buffer[512];
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < sizeof buffer; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    buffer[i] = uint8_t(x);
  }
  for (size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    for (size_t len = 0; offset + len <= sizeof buffer; len += 13) {
      EXPECT_EQ(Crc32c(buffer + offset, len),
                Crc32cPortable(buffer + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "delta-varint chunks with trailing index";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t prefix = Crc32c(data.data(), cut);
    EXPECT_EQ(Crc32c(data.data() + cut, data.size() - cut, prefix), whole)
        << "cut at " << cut;
  }
}

TEST(Crc32cTest, IsADifferentPolynomialThanCrc32) {
  EXPECT_NE(Crc32c("123456789", 9), Crc32("123456789", 9));
}

}  // namespace
}  // namespace setcover
