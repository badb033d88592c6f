// Per-kernel differential suite for the SIMD dispatch layer
// (util/simd.h): every tier's kernel table must produce bit-identical
// outputs to the scalar reference on randomized inputs, across the
// sizes where lane handling goes wrong (empty, single, one-off-a-word,
// exact words, vector-width remainders). The scalar tier is the
// semantics; the other tiers exist only to be faster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/varint.h"

namespace setcover {
namespace {

// Sizes chosen to hit: empty input, scalar tails shorter than any
// vector width, exact 64-bit mask words, one over/under a mask word,
// multiple words, and a large non-aligned count.
const size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                         31, 32, 33, 63, 64, 65, 127, 128, 129, 511,
                         512, 513, 1000};

std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::MaxSupportedLevel() >= simd::Level::kSse42) {
    levels.push_back(simd::Level::kSse42);
  }
  if (simd::MaxSupportedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

std::vector<uint64_t> RandomWords(Rng& rng, size_t count) {
  std::vector<uint64_t> words(count);
  for (uint64_t& w : words) w = rng.Next64();
  return words;
}

TEST(SimdKernelTest, GatherBitsMatchesScalarAtEveryTier) {
  Rng rng(1);
  const std::vector<uint64_t> bits = RandomWords(rng, 64);  // 4096 bits
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    for (size_t count : kSizes) {
      std::vector<uint32_t> ids(count);
      for (uint32_t& id : ids) {
        id = uint32_t(rng.Next64() % (64 * 64));
      }
      const size_t mask_words = (count + 63) / 64;
      // Poisoned output buffers prove every word (and the tail bits)
      // is written, not merely left zero.
      std::vector<uint64_t> expected(mask_words + 1, ~uint64_t{0});
      std::vector<uint64_t> actual(mask_words + 1, ~uint64_t{0});
      simd::ForLevel(simd::Level::kScalar)
          .gather_bits(bits.data(), ids.data(), count, expected.data());
      kernels.gather_bits(bits.data(), ids.data(), count, actual.data());
      EXPECT_EQ(expected, actual)
          << simd::LevelName(level) << " count=" << count;
      // The convention: bits at positions >= count in the last written
      // word are zero; the sentinel word past the end is untouched.
      if (count % 64 != 0) {
        EXPECT_EQ(actual[mask_words - 1] >> (count % 64), 0u)
            << simd::LevelName(level) << " count=" << count;
      }
      EXPECT_EQ(actual[mask_words], ~uint64_t{0})
          << simd::LevelName(level) << " count=" << count;
    }
  }
}

TEST(SimdKernelTest, GatherEqualU32MatchesScalarAtEveryTier) {
  Rng rng(2);
  std::vector<uint32_t> values(4096);
  for (uint32_t& v : values) {
    // Dense collisions with the needle so both mask polarities occur.
    v = uint32_t(rng.Next64() % 4);
  }
  const uint32_t needle = 3;
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    for (size_t count : kSizes) {
      std::vector<uint32_t> ids(count);
      for (uint32_t& id : ids) {
        id = uint32_t(rng.Next64() % values.size());
      }
      const size_t mask_words = (count + 63) / 64;
      std::vector<uint64_t> expected(mask_words + 1, ~uint64_t{0});
      std::vector<uint64_t> actual(mask_words + 1, ~uint64_t{0});
      simd::ForLevel(simd::Level::kScalar)
          .gather_equal_u32(values.data(), ids.data(), count, needle,
                            expected.data());
      kernels.gather_equal_u32(values.data(), ids.data(), count, needle,
                               actual.data());
      EXPECT_EQ(expected, actual)
          << simd::LevelName(level) << " count=" << count;
      EXPECT_EQ(actual[mask_words], ~uint64_t{0})
          << simd::LevelName(level) << " count=" << count;
    }
  }
}

TEST(SimdKernelTest, PopcountKernelsMatchScalarAtEveryTier) {
  Rng rng(3);
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    for (size_t count : kSizes) {
      const std::vector<uint64_t> a = RandomWords(rng, count);
      const std::vector<uint64_t> b = RandomWords(rng, count);
      const simd::Kernels& scalar = simd::ForLevel(simd::Level::kScalar);
      EXPECT_EQ(scalar.popcount_words(a.data(), count),
                kernels.popcount_words(a.data(), count))
          << simd::LevelName(level) << " count=" << count;
      EXPECT_EQ(scalar.popcount_andnot_words(a.data(), b.data(), count),
                kernels.popcount_andnot_words(a.data(), b.data(), count))
          << simd::LevelName(level) << " count=" << count;
    }
  }
}

TEST(SimdKernelTest, LessThanIndicesMatchesScalarAtEveryTier) {
  Rng rng(4);
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    for (size_t count : kSizes) {
      std::vector<double> values(count);
      for (double& v : values) v = rng.UniformDouble();
      // Thresholds at the degenerate ends and in between; the exact
      // coin values also appear as thresholds so the strict `<` edge
      // (coin == p never fires) is exercised.
      std::vector<double> thresholds = {0.0, 1e-12, 0.25, 0.5, 0.75, 1.0};
      if (count > 0) thresholds.push_back(values[count / 2]);
      for (double threshold : thresholds) {
        std::vector<uint32_t> expected(count + 1, 0xDEADBEEF);
        std::vector<uint32_t> actual(count + 1, 0xDEADBEEF);
        const size_t expected_found =
            simd::ForLevel(simd::Level::kScalar)
                .less_than_indices_f64(values.data(), count, threshold,
                                       expected.data());
        const size_t actual_found = kernels.less_than_indices_f64(
            values.data(), count, threshold, actual.data());
        ASSERT_EQ(expected_found, actual_found)
            << simd::LevelName(level) << " count=" << count
            << " threshold=" << threshold;
        for (size_t i = 0; i < expected_found; ++i) {
          ASSERT_EQ(expected[i], actual[i])
              << simd::LevelName(level) << " count=" << count
              << " threshold=" << threshold << " i=" << i;
        }
        // Emitted indices are ascending and all satisfy the predicate.
        for (size_t i = 0; i < actual_found; ++i) {
          ASSERT_LT(values[actual[i]], threshold);
          if (i > 0) {
            ASSERT_LT(actual[i - 1], actual[i]);
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, SelectMaskedPairsMatchesScalarAtEveryTier) {
  Rng rng(6);
  // Every sub-vector remainder, plus a kIngestBatchEdges-sized slice and
  // its neighbours.
  std::vector<size_t> counts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  counts.insert(counts.end(), {4095, 4096, 4097});
  enum class Hits { kNone, kSome, kAll };
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    for (size_t count : counts) {
      for (uint32_t mask : {0u, 1u, 3u, 7u}) {
        for (Hits hits : {Hits::kNone, Hits::kSome, Hits::kAll}) {
          // Mask 0 selects every pair at value 0 and none at value 1.
          if (mask == 0 && hits == Hits::kSome) continue;
          const uint32_t value =
              mask == 0 ? (hits == Hits::kAll ? 0 : 1)
                        : uint32_t(rng.UniformInt(mask + 1));
          std::vector<uint32_t> pairs(2 * count);
          for (size_t i = 0; i < count; ++i) {
            uint32_t set = uint32_t(rng.Next64());
            if (mask != 0 && hits == Hits::kAll) {
              set = (set & ~mask) | value;
            } else if (mask != 0 && hits == Hits::kNone) {
              const uint32_t other =
                  (value + 1 + uint32_t(rng.UniformInt(mask))) & mask;
              set = (set & ~mask) | other;
            }
            pairs[2 * i] = set;
            pairs[2 * i + 1] = uint32_t(rng.Next64());
          }
          std::vector<uint32_t> selected;
          for (size_t i = 0; i < count; ++i) {
            if ((pairs[2 * i] & mask) != value) continue;
            selected.push_back(pairs[2 * i]);
            selected.push_back(pairs[2 * i + 1]);
          }
          const std::string context =
              std::string(simd::LevelName(level)) +
              " count=" + std::to_string(count) +
              " mask=" + std::to_string(mask) +
              " value=" + std::to_string(value);
          if (hits == Hits::kNone) {
            ASSERT_TRUE(selected.empty()) << context;
          }
          if (hits == Hits::kAll) {
            ASSERT_EQ(selected.size(), 2 * count) << context;
          }

          // A poisoned pair past `count` proves the writes stay inside
          // the documented count-pair output buffer.
          std::vector<uint32_t> expected(2 * count + 2, 0xDEADBEEF);
          std::vector<uint32_t> actual(2 * count + 2, 0xDEADBEEF);
          const size_t expected_found =
              simd::ForLevel(simd::Level::kScalar)
                  .select_masked_pairs(pairs.data(), count, mask, value,
                                       expected.data());
          const size_t actual_found = kernels.select_masked_pairs(
              pairs.data(), count, mask, value, actual.data());
          ASSERT_EQ(expected_found, selected.size() / 2) << context;
          ASSERT_EQ(actual_found, expected_found) << context;
          EXPECT_EQ(std::vector<uint32_t>(actual.begin(),
                                          actual.begin() + 2 * actual_found),
                    selected)
              << context;
          EXPECT_EQ(actual[2 * count], 0xDEADBEEFu) << context;
          EXPECT_EQ(actual[2 * count + 1], 0xDEADBEEFu) << context;
          EXPECT_EQ(expected[2 * count], 0xDEADBEEFu) << context;
        }
      }
    }
  }
}

TEST(SimdKernelTest, DecodeVarintPairsMatchesScalarAtEveryTier) {
  Rng rng(7);
  // Pair counts around the 16-byte window and the multi-chain cut, and
  // value widths from all-1-byte to mixed 1–5 bytes with some of 2^32
  // and more (which every tier must leave to its caller).
  std::vector<size_t> counts(std::begin(kSizes), std::end(kSizes));
  counts.insert(counts.end(), {1023, 1024, 1025, 4095, 4096});
  for (uint64_t limit : {uint64_t{128}, uint64_t{1} << 21,
                         uint64_t{1} << 35}) {
    for (size_t count : counts) {
      std::vector<uint8_t> bytes;
      std::vector<uint32_t> values;
      for (size_t i = 0; i < 2 * count; ++i) {
        const uint64_t value = rng.Next64() % limit >> (rng.Next64() % 30);
        AppendVarint(&bytes, value);
        values.push_back(uint32_t(value));
      }
      bytes.shrink_to_fit();  // exact size: ASan sees any overread
      std::vector<uint32_t> expected(2 * count + 2, 0xDEADBEEF);
      size_t expected_consumed = 0;
      const size_t expected_taken =
          simd::ForLevel(simd::Level::kScalar)
              .decode_varint_pairs(bytes.data(), bytes.size(), count,
                                   expected.data(), &expected_consumed);
      if (limit <= uint64_t{1} << 32) {
        ASSERT_EQ(expected_taken, count);
        ASSERT_EQ(expected_consumed, bytes.size());
        ASSERT_TRUE(std::equal(values.begin(), values.end(),
                               expected.begin()));
      }
      for (simd::Level level : TestableLevels()) {
        const std::string context = std::string(simd::LevelName(level)) +
                                    " count=" + std::to_string(count) +
                                    " limit=" + std::to_string(limit);
        std::vector<uint32_t> actual(2 * count + 2, 0xDEADBEEF);
        size_t consumed = 0;
        const size_t taken = simd::ForLevel(level).decode_varint_pairs(
            bytes.data(), bytes.size(), count, actual.data(), &consumed);
        ASSERT_EQ(taken, expected_taken) << context;
        ASSERT_EQ(consumed, expected_consumed) << context;
        EXPECT_TRUE(std::equal(actual.begin(), actual.begin() + 2 * long(taken),
                               expected.begin()))
            << context;
        EXPECT_EQ(actual[2 * count], 0xDEADBEEFu) << context;
        EXPECT_EQ(actual[2 * count + 1], 0xDEADBEEFu) << context;
      }
    }
  }
}

TEST(SimdKernelTest, Crc32cKernelMatchesPortableAtEveryTier) {
  Rng rng(5);
  for (simd::Level level : TestableLevels()) {
    const simd::Kernels& kernels = simd::ForLevel(level);
    // The RFC 3720 check value.
    EXPECT_EQ(kernels.crc32c("123456789", 9, 0), 0xE3069283u)
        << simd::LevelName(level);
    for (size_t count : kSizes) {
      std::vector<uint8_t> data(count);
      for (uint8_t& b : data) b = uint8_t(rng.Next64());
      const uint32_t seed = uint32_t(rng.Next64());
      EXPECT_EQ(Crc32cPortable(data.data(), count, seed),
                kernels.crc32c(data.data(), count, seed))
          << simd::LevelName(level) << " count=" << count;
    }
  }
}

TEST(SimdKernelTest, ParseLevelAcceptsDocumentedNamesOnly) {
  simd::Level level;
  ASSERT_TRUE(simd::ParseLevel("scalar", &level));
  EXPECT_EQ(level, simd::Level::kScalar);
  ASSERT_TRUE(simd::ParseLevel("sse4.2", &level));
  EXPECT_EQ(level, simd::Level::kSse42);
  ASSERT_TRUE(simd::ParseLevel("sse42", &level));
  EXPECT_EQ(level, simd::Level::kSse42);
  ASSERT_TRUE(simd::ParseLevel("avx2", &level));
  EXPECT_EQ(level, simd::Level::kAvx2);
  EXPECT_FALSE(simd::ParseLevel("", &level));
  EXPECT_FALSE(simd::ParseLevel("avx512", &level));
  EXPECT_FALSE(simd::ParseLevel("SCALAR", &level));
}

TEST(SimdKernelTest, LevelNamesRoundTrip) {
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse42,
                            simd::Level::kAvx2}) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(SimdKernelTest, ForceLevelForTestClampsAndRestores) {
  const simd::Level original = simd::ActiveLevel();
  const simd::Level previous = simd::ForceLevelForTest(simd::Level::kScalar);
  EXPECT_EQ(previous, original);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  // Forcing above the CPU's capability clamps instead of faulting.
  simd::ForceLevelForTest(simd::Level::kAvx2);
  EXPECT_LE(simd::ActiveLevel(), simd::MaxSupportedLevel());
  simd::ForceLevelForTest(original);
  EXPECT_EQ(simd::ActiveLevel(), original);
}

}  // namespace
}  // namespace setcover
