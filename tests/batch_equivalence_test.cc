// The batch ingestion contract (core/streaming_algorithm.h): for every
// algorithm, ProcessEdgeBatch must leave the algorithm in a state
// bit-identical to the per-edge path — same cover, same certificate,
// same EncodeState words, same meter peak — at any batch partition of
// the stream, and under the supervisor's batched delivery with faults
// firing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/streaming_algorithm.h"
#include "instance/generators.h"
#include "engine/engine.h"
#include "stream/edge_source.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

// Large enough that the stream crosses several kIngestBatchEdges
// boundaries (exercises the NGuess composite-meter refresh points).
const EdgeStream& TestStream() {
  static const EdgeStream stream = [] {
    PlantedCoverParams params;
    params.num_elements = 256;
    params.num_sets = 4096;
    params.planted_cover_size = 8;
    params.decoy_min_size = 1;
    params.decoy_max_size = 4;
    Rng rng(7);
    SetCoverInstance instance = GeneratePlantedCover(params, rng);
    Rng order_rng(11);
    return OrderedStream(instance, StreamOrder::kRandom, order_rng);
  }();
  return stream;
}

struct Observed {
  CoverSolution solution;
  std::vector<uint64_t> state;  // EncodeState at end of stream
  size_t peak_words = 0;
};

void Capture(StreamingSetCoverAlgorithm& algorithm, Observed* out) {
  StateEncoder encoder;
  algorithm.EncodeState(&encoder);
  out->state = encoder.Words();
  out->solution = algorithm.Finalize();
  out->peak_words = algorithm.Meter().PeakWords();
}

Observed RunPerEdge(const std::string& name, const EdgeStream& stream) {
  auto algorithm = MakeAlgorithmByName(name, {});
  algorithm->Begin(stream.meta);
  for (const Edge& e : stream.edges) algorithm->ProcessEdge(e);
  Observed observed;
  Capture(*algorithm, &observed);
  return observed;
}

Observed RunBatched(const std::string& name, const EdgeStream& stream,
                    size_t batch_edges) {
  auto algorithm = MakeAlgorithmByName(name, {});
  algorithm->Begin(stream.meta);
  std::span<const Edge> edges(stream.edges);
  for (size_t offset = 0; offset < edges.size(); offset += batch_edges) {
    algorithm->ProcessEdgeBatch(
        edges.subspan(offset, std::min(batch_edges, edges.size() - offset)));
  }
  Observed observed;
  Capture(*algorithm, &observed);
  return observed;
}

void ExpectIdentical(const Observed& expected, const Observed& actual,
                     const std::string& label) {
  EXPECT_EQ(expected.solution.cover, actual.solution.cover) << label;
  EXPECT_EQ(expected.solution.certificate, actual.solution.certificate)
      << label;
  EXPECT_EQ(expected.state, actual.state) << label;
  EXPECT_EQ(expected.peak_words, actual.peak_words) << label;
}

class BatchEquivalence : public testing::TestWithParam<std::string> {};

TEST_P(BatchEquivalence, EveryBatchPartitionMatchesPerEdge) {
  const EdgeStream& stream = TestStream();
  const Observed reference = RunPerEdge(GetParam(), stream);
  for (size_t batch_edges :
       {size_t{1}, size_t{7}, size_t{64}, stream.edges.size()}) {
    ExpectIdentical(reference, RunBatched(GetParam(), stream, batch_edges),
                    GetParam() + " batch=" + std::to_string(batch_edges));
  }
}

// The supervisor's batched delivery over a fault-injected source must
// match a per-edge loop applying the same skip/retry handling: faults
// change which edges arrive, batching must not change anything else.
TEST_P(BatchEquivalence, SupervisedFaultyDeliveryMatchesPerEdge) {
  const EdgeStream& stream = TestStream();
  const FaultSchedule schedule = FaultSchedule::AllKinds(99);

  auto reference_algorithm = MakeAlgorithmByName(GetParam(), {});
  {
    VectorEdgeSource base(stream);
    FaultInjector source(&base, schedule);
    reference_algorithm->Begin(source.Meta());
    for (;;) {
      const EdgeBatch batch = source.NextBatch(1);
      if (batch.status == ReadStatus::kEnd) break;
      if (batch.status == ReadStatus::kOk)
        reference_algorithm->ProcessEdge(batch.edges[0]);
      // kTransient: retry; kCorrupt: skip — as the supervisor does.
    }
  }
  Observed reference;
  reference.solution = reference_algorithm->Finalize();
  StateEncoder reference_encoder;
  reference_algorithm->EncodeState(&reference_encoder);
  reference.state = reference_encoder.Words();
  reference.peak_words = reference_algorithm->Meter().PeakWords();

  auto supervised_algorithm = MakeAlgorithmByName(GetParam(), {});
  VectorEdgeSource base(stream);
  FaultInjector source(&base, schedule);
  engine::RunReport report =
      engine::Drive({}, *supervised_algorithm, source);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_TRUE(report.completed);

  Observed supervised;
  supervised.solution = report.solution;
  StateEncoder supervised_encoder;
  supervised_algorithm->EncodeState(&supervised_encoder);
  supervised.state = supervised_encoder.Words();
  supervised.peak_words = supervised_algorithm->Meter().PeakWords();

  ExpectIdentical(reference, supervised, GetParam() + " supervised");
}

// Replaying the same stream from disk must be bit-identical to the
// in-memory run whether the chunks decode on the calling thread or on
// the prefetch decoder's — the contract that makes prefetch a pure
// performance change.
TEST_P(BatchEquivalence, FileReplayMatchesInMemoryAcrossFormats) {
  const EdgeStream& stream = TestStream();
  const Observed reference = RunPerEdge(GetParam(), stream);

  // PID-qualified: the forced-SIMD-tier ctest matrix runs several
  // instances of this binary concurrently on the same TempDir.
  const std::string path = testing::TempDir() + "/bequiv_" +
                           std::to_string(getpid()) + "_" + GetParam() +
                           "_v3.bin";
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;
  for (bool prefetch : {false, true}) {
    StreamReadOptions options;
    options.prefetch = prefetch;
    auto reader = OpenBatchEdgeReader(path, options, &error);
    ASSERT_NE(reader, nullptr) << error;
    auto algorithm = MakeAlgorithmByName(GetParam(), {});
    algorithm->Begin(reader->Meta());
    for (std::span<const Edge> batch = reader->NextBatch(); !batch.empty();
         batch = reader->NextBatch()) {
      algorithm->ProcessEdgeBatch(batch);
    }
    Observed observed;
    Capture(*algorithm, &observed);
    ExpectIdentical(reference, observed,
                    GetParam() + (prefetch ? " prefetch" : " sync"));
  }
  std::remove(path.c_str());
}

std::string SafeName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BatchEquivalence,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         SafeName);

}  // namespace
}  // namespace setcover
