// The geometric-skip Bernoulli sampler (util/sampling.h): the index set
// it emits, its degenerate rates, and — over many fixed seeds — the
// distribution it must share with one Bernoulli(p) coin per index: the
// per-index hit frequency is p, and the gaps between hits are
// Geometric(p). Tolerances are a few standard deviations of each
// statistic, checked against its spread over seed bases.

#include "util/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace setcover {
namespace {

std::vector<uint32_t> Hits(Rng& rng, uint32_t count, double p) {
  std::vector<uint32_t> hits;
  ForEachBernoulliHit(rng, count, p, [&](uint32_t i) { hits.push_back(i); });
  return hits;
}

TEST(SamplingTest, HitsAreAscendingAndBelowCount) {
  for (uint32_t count : {1u, 2u, 7u, 64u, 1000u, 65537u}) {
    for (double p : {1e-4, 0.01, 0.3, 0.5, 0.9, 0.999999}) {
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const std::vector<uint32_t> hits = Hits(rng, count, p);
        for (size_t i = 0; i < hits.size(); ++i) {
          ASSERT_LT(hits[i], count) << "p=" << p << " seed=" << seed;
          if (i > 0) {
            ASSERT_LT(hits[i - 1], hits[i]) << "p=" << p << " seed=" << seed;
          }
        }
      }
    }
  }
}

TEST(SamplingTest, DegenerateRatesDrawNoCoin) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double p : {0.0, -0.0, -1.0, -inf, nan}) {
    Rng rng(5);
    EXPECT_TRUE(Hits(rng, 1000, p).empty()) << p;
    EXPECT_EQ(rng.GetState(), Rng(5).GetState()) << p;
  }
  for (double p : {1.0, 1.5, inf}) {
    Rng rng(5);
    const std::vector<uint32_t> hits = Hits(rng, 1000, p);
    ASSERT_EQ(hits.size(), 1000u) << p;
    for (uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(hits[i], i) << p;
    EXPECT_EQ(rng.GetState(), Rng(5).GetState()) << p;
  }
  for (double p : {0.0, 0.5, 1.0, nan}) {
    Rng rng(5);
    EXPECT_TRUE(Hits(rng, 0, p).empty()) << p;
    EXPECT_EQ(rng.GetState(), Rng(5).GetState()) << p;
  }
}

TEST(SamplingTest, TinyRateOverHugeCountReturnsAtOnce) {
  // The first gap is about 1e300 (or +inf) sets long: the scan compares
  // it with the remaining count as a double and stops after one coin,
  // instead of overflowing the index or walking 2^32 sets.
  for (double p : {1e-300, 5e-324}) {
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      Rng rng(seed);
      EXPECT_TRUE(Hits(rng, 0xFFFFFFFFu, p).empty()) << p;
      Rng one_coin(seed);
      one_coin.UniformDouble();
      EXPECT_EQ(rng.GetState(), one_coin.GetState()) << p;
    }
  }
}

TEST(SamplingTest, EachIndexIsHitWithProbabilityP) {
  // 20,000 scans of 48 indices: each index's hit count is
  // Binomial(20000, p). Every index stays within 5 standard deviations
  // (the largest of the 48 deviations measured 1.7–3.5 sd over ten seed
  // bases per p), and so does the total (measured -1.8 to 2.9 sd).
  constexpr uint32_t kCount = 48;
  constexpr int kRuns = 20000;
  for (double p : {0.05, 0.5}) {
    std::vector<int> hits(kCount, 0);
    for (int run = 0; run < kRuns; ++run) {
      Rng rng(1000 + run);
      ForEachBernoulliHit(rng, kCount, p, [&](uint32_t i) { ++hits[i]; });
    }
    const double mean = kRuns * p;
    const double sd = std::sqrt(kRuns * p * (1 - p));
    double total = 0;
    for (uint32_t i = 0; i < kCount; ++i) {
      EXPECT_NEAR(hits[i], mean, 5 * sd) << "p=" << p << " index " << i;
      total += hits[i];
    }
    EXPECT_NEAR(total, kCount * mean, 5 * sd * std::sqrt(double(kCount)))
        << "p=" << p;
  }
}

TEST(SamplingTest, GapsBetweenHitsAreGeometric) {
  // Gaps (the misses before each hit) pooled over 40 seeds of a 2^16-set
  // scan: P(gap = k) = (1 - p)^k · p. Pearson's χ² over the cells
  // k < 30 plus one tail cell (30 degrees of freedom; mean 30, sd 7.7)
  // measured 17–46 over ten seed bases; the bound is 80, more than 6 sd
  // above the mean.
  constexpr double p = 0.08;
  constexpr int kCells = 30;
  std::vector<double> observed(kCells + 1, 0);
  double gaps = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    int64_t last = -1;
    ForEachBernoulliHit(rng, 1u << 16, p, [&](uint32_t i) {
      const int64_t gap = int64_t(i) - last - 1;
      observed[std::min<int64_t>(gap, kCells)] += 1;
      gaps += 1;
      last = i;
    });
  }
  double chi2 = 0;
  double tail = 1;
  for (int k = 0; k <= kCells; ++k) {
    const double prob = k < kCells ? std::pow(1 - p, k) * p : tail;
    tail -= prob;
    const double expected = gaps * prob;
    chi2 += (observed[k] - expected) * (observed[k] - expected) / expected;
  }
  EXPECT_LT(chi2, 80.0);
}

}  // namespace
}  // namespace setcover
