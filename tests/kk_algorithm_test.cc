#include "core/kk_algorithm.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "instance/generators.h"
#include "offline/greedy.h"
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
  params.decoy_min_size = 1;
  params.decoy_max_size = 4;
  return GeneratePlantedCover(params, rng);
}

TEST(KkAlgorithmTest, ValidCoverOnEveryOrder) {
  auto inst = PlantedInstance(100, 200, 4, 1);
  for (StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kSetMajor,
        StreamOrder::kElementMajor, StreamOrder::kRoundRobinSets,
        StreamOrder::kLargeSetsLast}) {
    KkAlgorithm algorithm(17);
    RunAndValidate(algorithm, inst, order, 3);
  }
}

TEST(KkAlgorithmTest, DeterministicGivenSeed) {
  auto inst = PlantedInstance(80, 120, 3, 2);
  KkAlgorithm a(99), b(99);
  auto sa = RunAndValidate(a, inst, StreamOrder::kRandom, 5);
  auto sb = RunAndValidate(b, inst, StreamOrder::kRandom, 5);
  EXPECT_EQ(sa.cover, sb.cover);
  EXPECT_EQ(sa.certificate, sb.certificate);
}

TEST(KkAlgorithmTest, SpaceIsThetaM) {
  // The degree array dominates: peak words ≈ m + 2n (+ solution).
  auto inst = PlantedInstance(64, 4096, 4, 3);
  KkAlgorithm algorithm(1);
  RunAndValidate(algorithm, inst, StreamOrder::kRandom, 1);
  size_t peak = algorithm.Meter().PeakWords();
  EXPECT_GE(peak, 4096u);
  EXPECT_LE(peak, 4096u + 2 * 64u + 2000u);
}

TEST(KkAlgorithmTest, ApproxWithinSqrtNBoundOnAdversarialOrders) {
  // Theorem 1: Õ(√n)-approximation. We allow the poly-log slack as a
  // constant factor at this scale.
  const uint32_t n = 256;
  auto inst = PlantedInstance(n, 2048, 4, 4);
  const double bound =
      8.0 * std::sqrt(double(n)) * std::log2(double(inst.NumSets()));
  for (StreamOrder order : {StreamOrder::kElementMajor,
                            StreamOrder::kRoundRobinSets,
                            StreamOrder::kRandom}) {
    KkAlgorithm algorithm(7);
    auto sol = RunAndValidate(algorithm, inst, order, 11);
    EXPECT_LE(sol.cover.size(),
              size_t(bound * double(inst.PlantedCover().size())))
        << StreamOrderName(order);
  }
}

TEST(KkAlgorithmTest, LevelHistogramDecaysGeometrically) {
  // §1.2: E|S_i| <= ½·E|S_{i-1}|. Averaged over trials, each level
  // should hold well under the previous one.
  const int trials = 10;
  std::vector<double> level_sums(3, 0.0);
  for (int t = 0; t < trials; ++t) {
    auto inst = PlantedInstance(256, 1024, 2, 100 + t);
    KkAlgorithm algorithm(200 + t);
    RunAndValidate(algorithm, inst, StreamOrder::kRandom, 300 + t);
    auto hist = algorithm.LevelHistogram();
    for (size_t i = 0; i < level_sums.size() && i < hist.size(); ++i) {
      level_sums[i] += double(hist[i]);
    }
  }
  ASSERT_GT(level_sums[0], 0.0);
  EXPECT_LT(level_sums[1], 0.75 * level_sums[0]);
  if (level_sums[1] > 0) {
    EXPECT_LT(level_sums[2], 0.75 * level_sums[1]);
  }
}

TEST(KkAlgorithmTest, SampledSolutionIsSmallOnPlantedInstances) {
  auto inst = PlantedInstance(256, 2048, 4, 5);
  KkAlgorithm algorithm(13);
  RunAndValidate(algorithm, inst, StreamOrder::kRandom, 17);
  // Sampled sets should be Õ(√n); generous constant.
  EXPECT_LE(algorithm.SampledCoverSize(),
            size_t(30.0 * std::sqrt(256.0) *
                   std::log2(double(inst.NumSets()))));
}

TEST(KkAlgorithmTest, TinyInstances) {
  // n = 1.
  auto one = SetCoverInstance::FromSets(1, {{0}});
  KkAlgorithm a(1);
  auto sol = RunAndValidate(a, one, StreamOrder::kSetMajor, 1);
  EXPECT_EQ(sol.cover.size(), 1u);
  // m = 1 covering everything.
  auto single = SetCoverInstance::FromSets(5, {{0, 1, 2, 3, 4}});
  KkAlgorithm b(2);
  auto sol2 = RunAndValidate(b, single, StreamOrder::kSetMajor, 1);
  EXPECT_EQ(sol2.cover.size(), 1u);
}

TEST(KkAlgorithmTest, DuplicateEdgesAreHarmless) {
  auto inst = SetCoverInstance::FromSets(4, {{0, 1}, {2, 3}});
  KkAlgorithm algorithm(3);
  EdgeStream stream;
  stream.meta = {2, 4, 8};
  stream.edges = {{0, 0}, {0, 0}, {0, 1}, {1, 2},
                  {1, 2}, {1, 3}, {0, 1}, {1, 3}};
  auto sol = RunStream(algorithm, stream);
  auto check = ValidateSolution(inst, sol);
  EXPECT_TRUE(check.ok) << check.error;
}

std::vector<uint64_t> EncodedState(const KkAlgorithm& algorithm) {
  StateEncoder encoder;
  algorithm.EncodeState(&encoder);
  return encoder.Words();
}

// DecodeState resumes a set just before, exactly at and just past a
// level boundary i·√n: the resumed run flips the uninterrupted run's
// coins (the RNG words are part of the state), builds its cover and
// ends in its encoded state. Only d(S) travels, so nothing derived
// from it may go stale across the cut.
TEST(KkAlgorithmTest, ResumesOnALevelBoundary) {
  // One set holding the whole universe: until it is included, each of
  // its edges raises d(S) by one, and the level-i coin lands heads with
  // probability 2^i·√n/m = 2^i/16.
  constexpr uint32_t n = 256, m = 256, kSet = 3, kSqrtN = 16;
  EdgeStream stream;
  stream.meta = {m, n, n};
  for (ElementId u = 0; u < n; ++u) stream.edges.push_back({kSet, u});
  // d(kSet) in the encoded degree vector: after the four RNG words and
  // the vector's length word, two degrees per word.
  auto degree = [](const std::vector<uint64_t>& words) {
    return uint32_t(words[5 + kSet / 2] >> (32 * (kSet % 2)));
  };
  size_t resumed_runs = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    KkAlgorithm reference(seed);
    reference.Begin(stream.meta);
    for (const Edge& edge : stream.edges) reference.ProcessEdge(edge);
    const std::vector<uint64_t> final_state = EncodedState(reference);
    const CoverSolution expected = reference.Finalize();
    for (uint32_t cut : {kSqrtN - 1, kSqrtN, 2 * kSqrtN - 1}) {
      const std::string context =
          "seed " + std::to_string(seed) + " cut " + std::to_string(cut);
      KkAlgorithm head(seed);
      head.Begin(stream.meta);
      for (uint32_t i = 0; i < cut; ++i) head.ProcessEdge(stream.edges[i]);
      const std::vector<uint64_t> words = EncodedState(head);
      if (degree(words) != cut) continue;  // included before the cut
      ++resumed_runs;
      KkAlgorithm tail(seed + 1000);
      ASSERT_TRUE(tail.DecodeState(stream.meta, words)) << context;
      for (uint32_t i = cut; i < n; ++i) tail.ProcessEdge(stream.edges[i]);
      EXPECT_EQ(EncodedState(tail), final_state) << context;
      EXPECT_EQ(tail.SampledCoverSize(), reference.SampledCoverSize())
          << context;
      const CoverSolution actual = tail.Finalize();
      EXPECT_EQ(actual.cover, expected.cover) << context;
      EXPECT_EQ(actual.certificate, expected.certificate) << context;
    }
  }
  // Level 1's coin (p = 1/16) includes the set before the two later
  // cuts in about one seed of 16; every other run resumes.
  EXPECT_GE(resumed_runs, 40u);
}

TEST(KkAlgorithmTest, ReusableAcrossBeginCalls) {
  auto inst = PlantedInstance(60, 100, 3, 6);
  KkAlgorithm algorithm(5);
  auto s1 = RunAndValidate(algorithm, inst, StreamOrder::kRandom, 8);
  auto s2 = RunAndValidate(algorithm, inst, StreamOrder::kRandom, 8);
  EXPECT_EQ(s1.cover, s2.cover);  // Begin() must fully reset
}

}  // namespace
}  // namespace setcover
