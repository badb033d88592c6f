#include "core/adversarial_level.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "instance/generators.h"
#include "tests/test_util.h"

namespace setcover {
namespace {

SetCoverInstance PlantedInstance(uint32_t n, uint32_t m, uint32_t opt,
                                 uint64_t seed) {
  Rng rng(seed);
  PlantedCoverParams params;
  params.num_elements = n;
  params.num_sets = m;
  params.planted_cover_size = opt;
  params.decoy_max_size = 4;
  return GeneratePlantedCover(params, rng);
}

TEST(AdversarialLevelTest, ValidCoverOnEveryOrder) {
  auto inst = PlantedInstance(100, 300, 4, 1);
  for (StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kSetMajor,
        StreamOrder::kElementMajor, StreamOrder::kRoundRobinSets,
        StreamOrder::kLargeSetsLast}) {
    AdversarialLevelAlgorithm algorithm(21);
    RunAndValidate(algorithm, inst, order, 2);
  }
}

TEST(AdversarialLevelTest, AlphaClampedToTwoSqrtN) {
  AdversarialLevelParams params;
  params.alpha = 1.0;  // far below 2√n
  AdversarialLevelAlgorithm algorithm(1, params);
  auto inst = PlantedInstance(100, 100, 2, 2);
  RunAndValidate(algorithm, inst, StreamOrder::kRandom, 3);
  EXPECT_DOUBLE_EQ(algorithm.EffectiveAlpha(), 2.0 * std::sqrt(100.0));
}

TEST(AdversarialLevelTest, DefaultAlphaIsTwoSqrtN) {
  AdversarialLevelAlgorithm algorithm(1);
  auto inst = PlantedInstance(64, 100, 2, 3);
  RunAndValidate(algorithm, inst, StreamOrder::kRandom, 4);
  EXPECT_DOUBLE_EQ(algorithm.EffectiveAlpha(), 16.0);
}

TEST(AdversarialLevelTest, SpaceShrinksAsAlphaGrows) {
  // Theorem 4: space Õ(m·n/α²). Doubling α should substantially
  // reduce the promoted-set pool on a fixed instance.
  auto inst = PlantedInstance(256, 4096, 4, 4);
  double sqrt_n = 16.0;
  size_t promoted_small_alpha = 0, promoted_large_alpha = 0;
  for (int t = 0; t < 5; ++t) {
    AdversarialLevelParams small_params;
    small_params.alpha = 2.0 * sqrt_n;
    AdversarialLevelAlgorithm small_alpha(10 + t, small_params);
    RunAndValidate(small_alpha, inst, StreamOrder::kRandom, 20 + t);
    promoted_small_alpha += small_alpha.PeakPromotedSets();

    AdversarialLevelParams large_params;
    large_params.alpha = 8.0 * sqrt_n;
    AdversarialLevelAlgorithm large_alpha(10 + t, large_params);
    RunAndValidate(large_alpha, inst, StreamOrder::kRandom, 20 + t);
    promoted_large_alpha += large_alpha.PeakPromotedSets();
  }
  EXPECT_LT(promoted_large_alpha, promoted_small_alpha / 2);
}

TEST(AdversarialLevelTest, LevelHistogramTotalsM) {
  auto inst = PlantedInstance(100, 500, 4, 5);
  AdversarialLevelAlgorithm algorithm(3);
  RunAndValidate(algorithm, inst, StreamOrder::kRandom, 6);
  auto hist = algorithm.LevelHistogram();
  size_t total = 0;
  for (size_t c : hist) total += c;
  EXPECT_EQ(total, 500u);
}

TEST(AdversarialLevelTest, DeterministicGivenSeed) {
  auto inst = PlantedInstance(60, 150, 3, 6);
  AdversarialLevelAlgorithm a(42), b(42);
  auto sa = RunAndValidate(a, inst, StreamOrder::kElementMajor, 7);
  auto sb = RunAndValidate(b, inst, StreamOrder::kElementMajor, 7);
  EXPECT_EQ(sa.cover, sb.cover);
}

TEST(AdversarialLevelTest, TinyInstances) {
  auto one = SetCoverInstance::FromSets(1, {{0}});
  AdversarialLevelAlgorithm a(1);
  EXPECT_EQ(RunAndValidate(a, one, StreamOrder::kSetMajor, 1).cover.size(),
            1u);
}

TEST(AdversarialLevelTest, CoverBoundedOnPlantedInstance) {
  // Expected ratio O(α log m); check with generous slack.
  const uint32_t n = 256;
  auto inst = PlantedInstance(n, 2048, 4, 7);
  AdversarialLevelAlgorithm algorithm(9);
  auto sol = RunAndValidate(algorithm, inst, StreamOrder::kElementMajor, 8);
  double alpha = 2.0 * std::sqrt(double(n));
  double bound = 8.0 * alpha * std::log2(2048.0) *
                 double(inst.PlantedCover().size());
  EXPECT_LE(double(sol.cover.size()), bound);
}

// Feeds `n` edges whose elements are all distinct, so every edge is an
// uncovered-edge event (line 11 never skips one), and returns the
// promotions: the levels summed over the promoted sets.
double PromotionsOverDistinctElements(AdversarialLevelAlgorithm& algorithm,
                                      uint32_t n, uint32_t m) {
  algorithm.Begin(StreamMetadata{m, n, n});
  for (ElementId u = 0; u < n; ++u) algorithm.ProcessEdge({u % m, u});
  algorithm.Finalize();
  const std::vector<size_t> histogram = algorithm.LevelHistogram();
  double promotions = 0;
  for (size_t level = 1; level < histogram.size(); ++level) {
    promotions += double(level * histogram[level]);
  }
  return promotions;
}

TEST(AdversarialLevelTest, PromotesOncePerAlphaUncoveredEdges) {
  // The promotion countdown is the paper's Coin(1/α) per uncovered edge,
  // reparametrized: over n events the promotions are Binomial(n, 1/α),
  // here n = 40,000 and α = 2√n = 400, so mean 100 and variance 99. Over
  // 100 seeds the mean lands within 4 standard errors (measured
  // 98.0–101.4 over ten seed bases), and the per-run variance within
  // ±50% (measured 87–117): a countdown that drew a fixed gap of α
  // would hit the mean with variance near 0.
  constexpr uint32_t n = 40000, m = 1000;
  constexpr int kRuns = 100;
  const double alpha = 2.0 * std::sqrt(double(n));
  const double p = 1.0 / alpha;
  double sum = 0, sum_squares = 0;
  for (int run = 0; run < kRuns; ++run) {
    AdversarialLevelAlgorithm algorithm(500 + run);
    const double promotions = PromotionsOverDistinctElements(algorithm, n, m);
    EXPECT_DOUBLE_EQ(algorithm.EffectiveAlpha(), alpha);
    sum += promotions;
    sum_squares += promotions * promotions;
  }
  const double mean = sum / kRuns;
  const double variance = (sum_squares - kRuns * mean * mean) / (kRuns - 1);
  const double expected_variance = n * p * (1 - p);
  EXPECT_NEAR(mean, n * p, 4 * std::sqrt(expected_variance / kRuns));
  EXPECT_GT(variance, 0.5 * expected_variance);
  EXPECT_LT(variance, 1.5 * expected_variance);
}

// EncodeState word 4, right after the four RNG words.
constexpr size_t kPromoteGapWord = 4;

TEST(AdversarialLevelTest, PromotionCountdownTravelsInTheState) {
  auto inst = PlantedInstance(100, 300, 4, 11);
  Rng rng(12);
  const EdgeStream stream = OrderedStream(inst, StreamOrder::kRandom, rng);
  const size_t cut = stream.size() / 2;

  AdversarialLevelAlgorithm reference(31);
  reference.Begin(stream.meta);
  AdversarialLevelAlgorithm victim(31);
  victim.Begin(stream.meta);
  for (size_t i = 0; i < cut; ++i) {
    reference.ProcessEdge(stream.edges[i]);
    victim.ProcessEdge(stream.edges[i]);
  }
  StateEncoder encoder;
  victim.EncodeState(&encoder);
  const std::vector<uint64_t> words = encoder.Words();
  EXPECT_EQ(victim.StateWords(), words.size());
  EXPECT_GE(words[kPromoteGapWord], 1u);

  // The decoded run flips the reference's coins from the cut on.
  AdversarialLevelAlgorithm revived(999);
  ASSERT_TRUE(revived.DecodeState(stream.meta, words));
  for (size_t i = cut; i < stream.size(); ++i) {
    reference.ProcessEdge(stream.edges[i]);
    revived.ProcessEdge(stream.edges[i]);
  }
  const CoverSolution expected = reference.Finalize();
  const CoverSolution actual = revived.Finalize();
  EXPECT_EQ(actual.cover, expected.cover);
  EXPECT_EQ(actual.certificate, expected.certificate);
  EXPECT_EQ(revived.LevelHistogram(), reference.LevelHistogram());

  // A countdown of 0 could never have been drawn: refused.
  std::vector<uint64_t> zero_gap = words;
  zero_gap[kPromoteGapWord] = 0;
  AdversarialLevelAlgorithm refused(7);
  EXPECT_FALSE(refused.DecodeState(stream.meta, zero_gap));
}

// L travels sorted whatever order the promotions inserted it in. Here
// every edge names a new set, in descending id order, so L is built
// from the top id down; its state must decode and re-encode to the
// same words.
TEST(AdversarialLevelTest, LevelsInsertedInDescendingIdOrderRoundTrip) {
  constexpr uint32_t n = 40000, m = 40000;
  const StreamMetadata meta{m, n, n};
  AdversarialLevelAlgorithm original(77);
  original.Begin(meta);
  for (ElementId u = 0; u < n; ++u) original.ProcessEdge({m - 1 - u, u});
  StateEncoder encoder;
  original.EncodeState(&encoder);
  const std::vector<uint64_t>& words = encoder.Words();
  // L follows the RNG words and the countdown: a count word, then one
  // (set | level << 32) word per promoted set, sets ascending. About
  // n/α = 100 sets are promoted, each once.
  const uint64_t promoted = words[kPromoteGapWord + 1];
  ASSERT_GE(promoted, 20u);
  EXPECT_EQ(promoted, original.PeakPromotedSets());
  for (uint64_t i = 1; i < promoted; ++i) {
    const size_t pair = kPromoteGapWord + 2 + i;
    EXPECT_LT(uint32_t(words[pair - 1]), uint32_t(words[pair])) << i;
    EXPECT_EQ(words[pair] >> 32, 1u) << i;
  }

  AdversarialLevelAlgorithm revived(1);
  ASSERT_TRUE(revived.DecodeState(meta, words));
  StateEncoder again;
  revived.EncodeState(&again);
  EXPECT_EQ(again.Words(), words);
  EXPECT_EQ(revived.LevelHistogram(), original.LevelHistogram());
}

TEST(AdversarialLevelTest, HugeAlphaSaturatesThePromotionCountdown) {
  // 1/α too small for a finite gap: the draw saturates at
  // kMaxPromoteGap instead of overflowing, and nothing is promoted.
  for (double alpha : {1e300, std::numeric_limits<double>::infinity()}) {
    AdversarialLevelParams params;
    params.alpha = alpha;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      AdversarialLevelAlgorithm algorithm(seed, params);
      EXPECT_EQ(PromotionsOverDistinctElements(algorithm, 2000, 50), 0.0);
      StateEncoder encoder;
      algorithm.EncodeState(&encoder);
      EXPECT_EQ(encoder.Words()[kPromoteGapWord],
                AdversarialLevelAlgorithm::kMaxPromoteGap - 2000)
          << alpha;
    }
  }
}

}  // namespace
}  // namespace setcover
