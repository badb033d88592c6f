#include "util/math.h"

#include <cmath>

#include <gtest/gtest.h>

namespace setcover {
namespace {

TEST(MathTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(FloorLog2(uint64_t{1} << 63), 63);
}

TEST(MathTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 5), 0u);
  EXPECT_EQ(CeilDiv(1, 5), 1u);
  EXPECT_EQ(CeilDiv(5, 5), 1u);
  EXPECT_EQ(CeilDiv(6, 5), 2u);
  EXPECT_EQ(CeilDiv(10, 1), 10u);
}

TEST(MathTest, ISqrtExactSquares) {
  for (uint64_t r = 0; r < 2000; ++r) {
    EXPECT_EQ(ISqrt(r * r), r);
    if (r > 0) {
      EXPECT_EQ(ISqrt(r * r - 1), r - 1);
      // (r² + 1) only rounds down to r for r >= 1 (ISqrt(1) = 1).
      EXPECT_EQ(ISqrt(r * r + 1), r);
    }
  }
}

TEST(MathTest, ISqrtLargeValues) {
  EXPECT_EQ(ISqrt(uint64_t{1} << 62), uint64_t{1} << 31);
  uint64_t big = (uint64_t{1} << 32) - 1;
  EXPECT_EQ(ISqrt(big * big), big);
}

TEST(MathTest, LnAtLeastClamps) {
  EXPECT_DOUBLE_EQ(LnAtLeast(std::exp(3.0), 1.0), 3.0);
  EXPECT_DOUBLE_EQ(LnAtLeast(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(LnAtLeast(0.5, 2.0), 2.0);
}

TEST(MathTest, Log2AtLeastClamps) {
  EXPECT_DOUBLE_EQ(Log2AtLeast(8.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(Log2AtLeast(1.0, 1.5), 1.5);
}

}  // namespace
}  // namespace setcover
