#include "stream/stream_file.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/kk_algorithm.h"
#include "engine/engine.h"
#include "stream/edge_source.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace setcover {
namespace {

EdgeStream TestStream(uint64_t seed) {
  Rng rng(seed);
  UniformRandomParams params;
  params.num_elements = 60;
  params.num_sets = 40;
  params.max_set_size = 6;
  auto inst = GenerateUniformRandom(params, rng);
  return RandomOrderStream(inst, rng);
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

bool Write(const EdgeStream& stream, const std::string& path) {
  std::string error;
  const bool ok = WriteStreamFile(stream, path, StreamFormat::kV3, &error);
  EXPECT_TRUE(ok) << error;
  return ok;
}

/// Bytes of the header, and of each chunk's header (count, payload
/// bytes, payload CRC), in format v3.
constexpr long kHeaderBytes = 28;
constexpr long kChunkHeaderBytes = 12;

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(StreamFileTest, RoundTrip) {
  auto stream = TestStream(1);
  std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(Write(stream, path));

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->Meta().num_sets, stream.meta.num_sets);
  EXPECT_EQ(reader->Meta().num_elements, stream.meta.num_elements);
  EXPECT_EQ(reader->Meta().stream_length, stream.meta.stream_length);

  size_t i = 0;
  for (const Edge& edge : ReadBatches(*reader)) {
    ASSERT_LT(i, stream.edges.size());
    EXPECT_EQ(edge, stream.edges[i]);
    ++i;
  }
  EXPECT_EQ(i, stream.edges.size());
  EXPECT_FALSE(reader->Truncated());
}

TEST(StreamFileTest, EmptyStream) {
  EdgeStream stream;
  stream.meta = {5, 3, 0};
  std::string path = TempPath("empty.bin");
  ASSERT_TRUE(Write(stream, path));
  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_TRUE(reader->NextBatch().empty());
}

TEST(StreamFileTest, RejectsMissingFile) {
  std::string error;
  EXPECT_EQ(StreamFileReader::Open("/nonexistent/stream.bin", &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StreamFileTest, RejectsBadMagic) {
  std::string path = TempPath("badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPEnonsense data here";
  }
  std::string error;
  EXPECT_EQ(StreamFileReader::Open(path, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(StreamFileTest, DetectsTruncation) {
  auto stream = TestStream(2);
  std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(Write(stream, path));
  // Chop off the index, its footer and the last 12 payload bytes.
  const long chunks = long((stream.size() + 4095) / 4096);
  ASSERT_EQ(truncate(path.c_str(), FileSize(path) - chunks * 8 - 16 - 12), 0);

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  const size_t count = ReadBatches(*reader).size();
  EXPECT_LT(count, stream.edges.size());
  EXPECT_TRUE(reader->Truncated());
}

TEST(StreamFileTest, RunAlgorithmFromFile) {
  Rng rng(3);
  PlantedCoverParams params;
  params.num_elements = 80;
  params.num_sets = 200;
  params.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  std::string path = TempPath("solve.bin");
  ASSERT_TRUE(Write(stream, path));

  KkAlgorithm algorithm(7);
  engine::RunConfig config;
  config.algorithm_instance = &algorithm;
  config.source = engine::SourceSpec::File(path);
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(ValidateSolution(inst, report.solution).ok);

  // Must match an in-memory run bit-for-bit (same seed, same order).
  KkAlgorithm reference(7);
  auto expected = RunStream(reference, stream);
  EXPECT_EQ(report.solution.cover, expected.cover);
}

TEST(StreamFileTest, LargeStreamBuffersCorrectly) {
  // Exceed the 64Ki-edge internal buffer to exercise refills.
  Rng rng(4);
  UniformRandomParams params;
  params.num_elements = 500;
  params.num_sets = 40000;
  params.min_set_size = 2;
  params.max_set_size = 4;
  auto inst = GenerateUniformRandom(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{1} << 16);

  std::string path = TempPath("large.bin");
  ASSERT_TRUE(Write(stream, path));
  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  const size_t count = ReadBatches(*reader).size();
  EXPECT_EQ(count, stream.size());
}

TEST(StreamFileTest, WritesVersion3WithNoTempFileLeftBehind) {
  auto stream = TestStream(5);
  std::string path = TempPath("v3.bin");
  ASSERT_TRUE(Write(stream, path));

  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "atomic writer left its staging file";
  if (tmp != nullptr) std::fclose(tmp);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  uint32_t version = 0;
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  ASSERT_EQ(std::fread(&version, sizeof version, 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(version, 3u);

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
}

TEST(StreamFileTest, RewriteReplacesAtomically) {
  auto first = TestStream(6);
  auto second = TestStream(7);
  std::string path = TempPath("rewrite.bin");
  ASSERT_TRUE(Write(first, path));
  ASSERT_TRUE(Write(second, path));

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->Meta().stream_length, second.meta.stream_length);
  size_t i = 0;
  for (const Edge& edge : ReadBatches(*reader))
    EXPECT_EQ(edge, second.edges[i++]);
  EXPECT_EQ(i, second.size());
}

TEST(StreamFileTest, DetectsFlippedPayloadBitViaChunkChecksum) {
  auto stream = TestStream(8);
  std::string path = TempPath("bitflip.bin");
  ASSERT_TRUE(Write(stream, path));

  // Flip one bit inside the first chunk's payload. The file length is
  // untouched, so only the CRC can notice.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long at = kHeaderBytes + kChunkHeaderBytes + 20;  // payload + 20
  std::fseek(f, at, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, at, SEEK_SET);
  std::fputc(c ^ 0x04, f);
  std::fclose(f);

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  const size_t surfaced = ReadBatches(*reader).size();
  EXPECT_TRUE(reader->ChecksumFailed());
  EXPECT_EQ(surfaced, 0u) << "edges from a corrupt chunk were surfaced";
}

TEST(StreamFileTest, DetectsCorruptedChunkCountViaDeclaredLength) {
  auto stream = TestStream(9);
  std::string path = TempPath("badcount.bin");
  ASSERT_TRUE(Write(stream, path));

  // Overwrite the first chunk's count field. The expected count is
  // derived from the header's N, so the lie is caught immediately
  // rather than desynchronizing every later chunk.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, kHeaderBytes, SEEK_SET);
  uint32_t bogus = 7;
  ASSERT_EQ(std::fwrite(&bogus, sizeof bogus, 1, f), 1u);
  std::fclose(f);

  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  const size_t surfaced = ReadBatches(*reader).size();
  EXPECT_TRUE(reader->ChecksumFailed());
  EXPECT_EQ(surfaced, 0u);
}

TEST(StreamFileTest, DetectsCorruptedHeaderViaHeaderChecksum) {
  auto stream = TestStream(10);
  std::string path = TempPath("badheader.bin");
  ASSERT_TRUE(Write(stream, path));

  // Damage the m field without touching anything else.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  uint32_t bogus = 0xFFFFFFu;
  ASSERT_EQ(std::fwrite(&bogus, sizeof bogus, 1, f), 1u);
  std::fclose(f);

  std::string error;
  EXPECT_EQ(StreamFileReader::Open(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StreamFileTest, SeekToEdgeLandsExactly) {
  // Span several chunks so seeks cross chunk boundaries.
  Rng rng(11);
  UniformRandomParams params;
  params.num_elements = 300;
  params.num_sets = 4000;
  params.min_set_size = 2;
  params.max_set_size = 5;
  auto inst = GenerateUniformRandom(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{3} * 4096);

  std::string path = TempPath("seek.bin");
  ASSERT_TRUE(Write(stream, path));
  std::string error;
  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;

  for (size_t index : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                       size_t{4097}, size_t{9000}, stream.size() - 1}) {
    ASSERT_TRUE(reader->SeekToEdge(index)) << index;
    EXPECT_EQ(reader->EdgesRead(), index);
    const std::span<const Edge> batch = reader->NextBatch();
    ASSERT_FALSE(batch.empty()) << index;
    EXPECT_EQ(batch[0], stream.edges[index]) << index;
  }

  // Seeking to N positions at end-of-stream; past N is refused.
  ASSERT_TRUE(reader->SeekToEdge(stream.size()));
  EXPECT_TRUE(reader->NextBatch().empty());
  EXPECT_FALSE(reader->SeekToEdge(stream.size() + 1));
}

// StreamFileSource hands out the reader's chunk spans cut at whatever
// the caller asks for: a pull that ends inside a chunk reports
// Position() at the cut, and the next pull continues from it — also
// after a SeekTo into the middle of a chunk — with and without the
// prefetch decoder.
TEST(StreamFileTest, SourcePullsCutInsideChunks) {
  Rng rng(12);
  UniformRandomParams params;
  params.num_elements = 300;
  params.num_sets = 4000;
  params.min_set_size = 2;
  params.max_set_size = 5;
  auto inst = GenerateUniformRandom(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{3} * 4096);
  std::string path = TempPath("source_cuts.bin");
  std::string error;
  ASSERT_TRUE(Write(stream, path));

  for (const bool prefetch : {false, true}) {
    StreamReadOptions options;
    options.prefetch = prefetch;
    auto source = StreamFileSource::Open(path, options, &error);
    ASSERT_NE(source, nullptr) << error;
    auto expect_pull = [&](size_t max_edges, size_t from, size_t count) {
      const EdgeBatch batch = source->NextBatch(max_edges);
      ASSERT_EQ(batch.status, ReadStatus::kOk) << from;
      ASSERT_EQ(batch.edges.size(), count) << from;
      for (size_t i = 0; i < count; ++i)
        ASSERT_EQ(batch.edges[i], stream.edges[from + i]) << from + i;
      EXPECT_EQ(source->Position(), from + count);
    };
    expect_pull(1000, 0, 1000);        // cut inside chunk 0
    expect_pull(10000, 1000, 3096);    // the rest of chunk 0, no further
    expect_pull(7, 4096, 7);           // cut inside chunk 1
    expect_pull(1, 4103, 1);

    ASSERT_TRUE(source->SeekTo(5000));  // into the middle of chunk 1
    EXPECT_EQ(source->Position(), 5000u);
    expect_pull(10, 5000, 10);
    expect_pull(4096, 5010, 8192 - 5010);
    ASSERT_TRUE(source->SeekTo(100));
    expect_pull(50, 100, 50);

    // Draining at an odd cut yields the whole rest of the stream.
    size_t position = 150;
    for (;;) {
      const EdgeBatch batch = source->NextBatch(777);
      if (batch.status == ReadStatus::kEnd) break;
      ASSERT_EQ(batch.status, ReadStatus::kOk);
      for (const Edge& edge : batch.edges)
        ASSERT_EQ(edge, stream.edges[position++]);
      EXPECT_EQ(source->Position(), position);
    }
    EXPECT_EQ(position, stream.size());
    EXPECT_FALSE(source->Truncated());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace setcover
