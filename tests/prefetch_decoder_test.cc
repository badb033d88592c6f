// The pipelined decoder (stream/prefetch_decoder.h) must be
// observationally identical to the synchronous reader it wraps — same
// edges, same batches, same damage flags, same seek semantics — with
// the only difference being which thread does the decoding. These tests
// are also the TSan workout for the slot handoff.

#include "stream/prefetch_decoder.h"

#include <cstdio>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/kk_algorithm.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "stream/orderings.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace setcover {
namespace {

// PID-qualified: the forced-SIMD-tier ctest matrix runs this binary
// while ctest also runs its discovered cases, all on the same TempDir.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

/// Long enough to span several pipeline units (kUnitChunks chunks per
/// slot), so the worker and consumer genuinely alternate slots.
const EdgeStream& PipelineStream() {
  static const EdgeStream stream = [] {
    Rng rng(31);
    UniformRandomParams params;
    params.num_elements = 400;
    params.num_sets = 50000;
    params.min_set_size = 2;
    params.max_set_size = 4;
    auto instance = GenerateUniformRandom(params, rng);
    return RandomOrderStream(instance, rng);
  }();
  return stream;
}

std::string WriteFormat(const EdgeStream& stream, const std::string& name,
                        StreamFormat format) {
  std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(WriteStreamFile(stream, path, format, &error)) << error;
  return path;
}

class PrefetchFormats : public testing::TestWithParam<StreamFormat> {};

TEST_P(PrefetchFormats, EdgeSequenceMatchesSyncReader) {
  const EdgeStream& stream = PipelineStream();
  ASSERT_GT(stream.size(), PrefetchDecoder::kUnitChunks * 4096 * 2);
  std::string path = WriteFormat(stream, "pf_seq_v" + std::to_string(uint32_t(GetParam())) + ".bin", GetParam());

  std::string error;
  auto sync_reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(sync_reader, nullptr) << error;
  auto prefetch = PrefetchDecoder::Create(
      StreamFileReader::Open(path, &error));
  ASSERT_NE(prefetch, nullptr) << error;

  const std::vector<Edge> expected = ReadBatches(*sync_reader);
  const std::vector<Edge> actual = ReadBatches(*prefetch);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << "edge " << i;
  EXPECT_TRUE(prefetch->NextBatch().empty());
  EXPECT_EQ(prefetch->EdgesRead(), stream.size());
  EXPECT_FALSE(prefetch->Truncated());
  EXPECT_FALSE(prefetch->ChecksumFailed());
}

TEST_P(PrefetchFormats, BatchSequenceMatchesSyncReader) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_batch_v" + std::to_string(uint32_t(GetParam())) + ".bin", GetParam());

  std::string error;
  auto sync_reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(sync_reader, nullptr) << error;
  auto prefetch = PrefetchDecoder::Create(
      StreamFileReader::Open(path, &error));
  ASSERT_NE(prefetch, nullptr) << error;

  for (;;) {
    std::span<const Edge> expected = sync_reader->NextBatch();
    std::span<const Edge> actual = prefetch->NextBatch();
    ASSERT_EQ(actual.size(), expected.size());
    if (expected.empty()) break;
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()));
  }
}

TEST_P(PrefetchFormats, InterleavedSeeksMatchSyncReader) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_seek_v" + std::to_string(uint32_t(GetParam())) + ".bin", GetParam());

  std::string error;
  auto prefetch = PrefetchDecoder::Create(
      StreamFileReader::Open(path, &error));
  ASSERT_NE(prefetch, nullptr) << error;

  // Jump around (backwards included — pipeline restart), reading a
  // short run after each landing.
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    size_t index = size_t(rng.UniformInt(stream.size()));
    ASSERT_TRUE(prefetch->SeekToEdge(index));
    const std::vector<Edge> run = ReadBatches(*prefetch, 300);
    for (size_t k = 0; k < 300 && index + k < stream.size(); ++k) {
      ASSERT_LT(k, run.size()) << "round " << round;
      ASSERT_EQ(run[k], stream.edges[index + k]) << "round " << round;
    }
  }
}

TEST_P(PrefetchFormats, FileExecuteIsBitIdenticalEitherWay) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_run_v" + std::to_string(uint32_t(GetParam())) + ".bin", GetParam());

  StreamReadOptions sync_options;
  sync_options.prefetch = false;
  KkAlgorithm sync_algorithm(5);
  engine::RunConfig sync_config;
  sync_config.algorithm_instance = &sync_algorithm;
  sync_config.source = engine::SourceSpec::File(path, sync_options);
  const engine::RunReport sync_report = engine::Execute(sync_config);
  ASSERT_TRUE(sync_report.completed) << sync_report.error;

  StreamReadOptions prefetch_options;
  prefetch_options.prefetch = true;
  KkAlgorithm prefetch_algorithm(5);
  engine::RunConfig prefetch_config;
  prefetch_config.algorithm_instance = &prefetch_algorithm;
  prefetch_config.source = engine::SourceSpec::File(path, prefetch_options);
  const engine::RunReport prefetch_report = engine::Execute(prefetch_config);
  ASSERT_TRUE(prefetch_report.completed) << prefetch_report.error;

  EXPECT_EQ(prefetch_report.solution.cover, sync_report.solution.cover);
  EXPECT_EQ(prefetch_report.solution.certificate,
            sync_report.solution.certificate);
}

// v3 is the only format; the suite stays parameterized so its cases
// keep their names.
INSTANTIATE_TEST_SUITE_P(AllFormats, PrefetchFormats,
                         testing::Values(StreamFormat::kV3),
                         [](const testing::TestParamInfo<StreamFormat>& i) {
                           // Appended, not "v" + std::string: that trips
                           // a false -Wrestrict in GCC 12's optimized
                           // builds.
                           std::string name = "v";
                           name += std::to_string(uint32_t(i.param));
                           return name;
                         });

TEST(PrefetchDecoderTest, CorruptChunkEndsTheStreamWithFlags) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_corrupt.bin", StreamFormat::kV3);
  // Flip a byte in the middle of the chunk data region.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long mid = std::ftell(f) / 2;
  std::fseek(f, mid, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, mid, SEEK_SET);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);

  std::string error;
  auto prefetch = PrefetchDecoder::Create(
      StreamFileReader::Open(path, &error));
  ASSERT_NE(prefetch, nullptr) << error;
  size_t surfaced = 0;
  for (const Edge& edge : ReadBatches(*prefetch)) {
    ASSERT_EQ(edge, stream.edges[surfaced]);
    ++surfaced;
  }
  EXPECT_LT(surfaced, stream.size());
  EXPECT_TRUE(prefetch->ChecksumFailed() || prefetch->Truncated());

  // A seek back into the intact prefix recovers it.
  ASSERT_TRUE(prefetch->SeekToEdge(0));
  const std::span<const Edge> batch = prefetch->NextBatch();
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(batch[0], stream.edges[0]);
}

TEST(PrefetchDecoderTest, DestructionMidStreamJoinsCleanly) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_abort.bin", StreamFormat::kV3);
  // Tear the decoder down at various depths, including while the worker
  // is likely mid-unit — the join must never hang or race.
  for (size_t reads : {size_t{0}, size_t{1}, size_t{5000}, size_t{70000}}) {
    std::string error;
    auto prefetch = PrefetchDecoder::Create(
        StreamFileReader::Open(path, &error));
    ASSERT_NE(prefetch, nullptr) << error;
    ReadBatches(*prefetch, reads);
  }
}

TEST(PrefetchDecoderTest, RepeatedSeekStressRestartsThePipeline) {
  const EdgeStream& stream = PipelineStream();
  std::string path = WriteFormat(stream, "pf_stress.bin", StreamFormat::kV3);
  std::string error;
  auto prefetch = PrefetchDecoder::Create(
      StreamFileReader::Open(path, &error));
  ASSERT_NE(prefetch, nullptr) << error;
  // Many worker restarts back to back; each must leave a consistent
  // pipeline behind.
  for (int round = 0; round < 100; ++round) {
    size_t index = (size_t(round) * 1237) % stream.size();
    ASSERT_TRUE(prefetch->SeekToEdge(index));
    const std::span<const Edge> batch = prefetch->NextBatch();
    ASSERT_FALSE(batch.empty());
    ASSERT_EQ(batch[0], stream.edges[index]);
  }
}

}  // namespace
}  // namespace setcover
