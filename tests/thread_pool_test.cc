#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/multi_run.h"
#include "core/random_order.h"
#include "core/registry.h"
#include "instance/generators.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.RunIndexed(kCount, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPool, HandlesCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.RunIndexed(3, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
  pool.RunIndexed(0, [&](size_t) { FAIL() << "empty job must not run"; });
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.RunIndexed(17, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.RunIndexed(100, [&](size_t i) {
      if (i == 13 || i == 77) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
    FAIL() << "expected RunIndexed to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 13");
  }
  // The pool must survive a throwing job and accept new work.
  std::atomic<int> ran{0};
  pool.RunIndexed(10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

EdgeStream SmallStream() {
  PlantedCoverParams params;
  params.num_elements = 128;
  params.num_sets = 1024;
  params.planted_cover_size = 6;
  Rng rng(21);
  SetCoverInstance instance = GeneratePlantedCover(params, rng);
  Rng order_rng(22);
  return OrderedStream(instance, StreamOrder::kRandom, order_rng);
}

// The parallel drivers promise bit-identical results at any thread
// count: same cover, same certificate, same encoded state, same
// reported meter peak.
TEST(ParallelDeterminism, NGuessIsBitIdenticalAcrossThreadCounts) {
  const EdgeStream stream = SmallStream();
  CoverSolution reference;
  std::vector<uint64_t> reference_state;
  size_t reference_peak = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    AlgorithmOptions options;
    options.threads = threads;
    auto algorithm = MakeAlgorithmByName("random-order-nguess", options);
    ASSERT_NE(algorithm, nullptr);
    algorithm->Begin(stream.meta);
    for (const Edge& e : stream.edges) algorithm->ProcessEdge(e);
    StateEncoder encoder;
    algorithm->EncodeState(&encoder);
    CoverSolution solution = algorithm->Finalize();
    if (threads == 1) {
      reference = solution;
      reference_state = encoder.Words();
      reference_peak = algorithm->Meter().PeakWords();
    } else {
      EXPECT_EQ(solution.cover, reference.cover) << "threads=" << threads;
      EXPECT_EQ(solution.certificate, reference.certificate)
          << "threads=" << threads;
      EXPECT_EQ(encoder.Words(), reference_state) << "threads=" << threads;
      EXPECT_EQ(algorithm->Meter().PeakWords(), reference_peak)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, BestOfRunsIsBitIdenticalAcrossThreadCounts) {
  const EdgeStream stream = SmallStream();
  auto factory = [](uint64_t seed) {
    return std::make_unique<RandomOrderAlgorithm>(seed);
  };
  CoverSolution reference;
  size_t reference_peak = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    size_t total_peak = 0;
    CoverSolution solution =
        BestOfRuns(factory, /*runs=*/5, /*seed=*/123, stream, &total_peak,
                   threads);
    if (threads == 1) {
      reference = solution;
      reference_peak = total_peak;
    } else {
      EXPECT_EQ(solution.cover, reference.cover) << "threads=" << threads;
      EXPECT_EQ(solution.certificate, reference.certificate)
          << "threads=" << threads;
      EXPECT_EQ(total_peak, reference_peak) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace setcover
