#ifndef SETCOVER_TESTS_TEST_UTIL_H_
#define SETCOVER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/streaming_algorithm.h"
#include "instance/instance.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/rng.h"

namespace setcover {

/// Streams `instance` through `algorithm` in the given order and asserts
/// the result is a valid cover with a valid certificate. Returns the
/// solution for further assertions.
inline CoverSolution RunAndValidate(StreamingSetCoverAlgorithm& algorithm,
                                    const SetCoverInstance& instance,
                                    StreamOrder order, uint64_t stream_seed) {
  Rng rng(stream_seed);
  EdgeStream stream = OrderedStream(instance, order, rng);
  CoverSolution solution = RunStream(algorithm, stream);
  ValidationResult check = ValidateSolution(instance, solution);
  EXPECT_TRUE(check.ok) << algorithm.Name() << " on "
                        << StreamOrderName(order) << ": " << check.error;
  return solution;
}

/// Drains `reader` through NextBatch() from its cursor, whole batches
/// at a time, until the stream ends or at least `at_least` edges were
/// read; returns them in order.
inline std::vector<Edge> ReadBatches(
    BatchEdgeReader& reader,
    size_t at_least = std::numeric_limits<size_t>::max()) {
  std::vector<Edge> edges;
  while (edges.size() < at_least) {
    const std::span<const Edge> batch = reader.NextBatch();
    if (batch.empty()) break;
    edges.insert(edges.end(), batch.begin(), batch.end());
  }
  return edges;
}

}  // namespace setcover

#endif  // SETCOVER_TESTS_TEST_UTIL_H_
