// Stream-file read matrix (stream/stream_file.h): the v3 file read from
// its mapping, decoded synchronously and by the prefetch decoder, must
// round-trip bit-exactly, report damage (bit flips, truncation, lost
// index) via flags instead of surfacing garbage, and be smaller than
// raw 8-byte edges on the Table-1 workloads it exists to shrink.

#include "stream/stream_file.h"

#include <cstdio>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

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

EdgeStream SmallStream(StreamOrder order, uint64_t seed = 21) {
  Rng rng(seed);
  PlantedCoverParams params;
  params.num_elements = 128;
  params.num_sets = 3000;
  params.planted_cover_size = 4;
  auto instance = GeneratePlantedCover(params, rng);
  Rng order_rng(seed + 1);
  return OrderedStream(instance, order, order_rng);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<uint64_t>(in.tellg());
}

void TruncateFile(const std::string& path, uint64_t new_size) {
  ASSERT_EQ(truncate(path.c_str(), off_t(new_size)), 0);
}

void FlipByte(const std::string& path, uint64_t offset, uint8_t mask) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, long(offset), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, long(offset), SEEK_SET), 0);
  std::fputc(c ^ mask, f);
  std::fclose(f);
}

/// Parallel ctest runs each parameterized case in its own process, so
/// every read path needs its own scratch file.
std::string ConfigPath(const char* base, bool prefetch) {
  return TempPath(std::string(base) + "_v3" + (prefetch ? "p" : "n") +
                  ".bin");
}

/// The read path a case runs: v3 from its mapping, decoded
/// synchronously or by the prefetch decoder.
std::string ConfigName(const testing::TestParamInfo<bool>& info) {
  return info.param ? "v3_mmap_prefetch" : "v3_mmap_sync";
}

/// The parameter is StreamReadOptions::prefetch.
class FormatMatrix : public testing::TestWithParam<bool> {};

TEST_P(FormatMatrix, RoundTripsEveryOrdering) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  for (StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kSetMajor,
        StreamOrder::kElementMajor, StreamOrder::kRoundRobinSets,
        StreamOrder::kLargeSetsLast}) {
    EdgeStream stream = SmallStream(order);
    std::string path = ConfigPath(
        ("matrix_" + StreamOrderName(order)).c_str(), options.prefetch);
    std::string error;
    ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
        << error;

    auto reader = OpenBatchEdgeReader(path, options, &error);
    ASSERT_NE(reader, nullptr) << error;
    EXPECT_EQ(reader->Meta().stream_length, stream.meta.stream_length);

    size_t i = 0;
    for (const Edge& edge : ReadBatches(*reader)) {
      ASSERT_LT(i, stream.edges.size());
      ASSERT_EQ(edge, stream.edges[i]) << "edge " << i;
      ++i;
    }
    EXPECT_EQ(i, stream.edges.size());
    EXPECT_FALSE(reader->Truncated());
    EXPECT_FALSE(reader->ChecksumFailed());
  }
}

TEST_P(FormatMatrix, BatchesConcatenateToTheStream) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string path = ConfigPath("batches", options.prefetch);
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;

  auto reader = OpenBatchEdgeReader(path, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<Edge> collected;
  for (std::span<const Edge> batch = reader->NextBatch(); !batch.empty();
       batch = reader->NextBatch()) {
    EXPECT_LE(batch.size(), kIngestBatchEdges);
    collected.insert(collected.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(collected, stream.edges);
}

TEST_P(FormatMatrix, SeeksLandExactly) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  ASSERT_GT(stream.size(), size_t{2} * 4096);
  std::string path = ConfigPath("seek_matrix", options.prefetch);
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;

  auto reader = OpenBatchEdgeReader(path, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  for (size_t index : {size_t{0}, size_t{4095}, size_t{4096}, size_t{6000},
                       stream.size() - 1, size_t{1}}) {
    ASSERT_TRUE(reader->SeekToEdge(index)) << index;
    EXPECT_EQ(reader->EdgesRead(), index);
    const std::span<const Edge> batch = reader->NextBatch();
    ASSERT_FALSE(batch.empty()) << index;
    EXPECT_EQ(batch[0], stream.edges[index]) << index;
  }
  ASSERT_TRUE(reader->SeekToEdge(stream.size()));
  EXPECT_TRUE(reader->NextBatch().empty());
  EXPECT_FALSE(reader->SeekToEdge(stream.size() + 1));
}

// A flipped payload bit must end the stream with ChecksumFailed() — the
// intact chunks before the damage are served, nothing at or past it is.
TEST_P(FormatMatrix, FlippedBitSurfacesAsChecksumFailure) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string path = ConfigPath("flip_matrix", options.prefetch);
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;

  // Aim mid-file: inside some middle chunk's header or payload.
  FlipByte(path, FileSize(path) / 2, 0x10);

  auto reader = OpenBatchEdgeReader(path, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  size_t surfaced = 0;
  for (const Edge& edge : ReadBatches(*reader)) {
    ASSERT_EQ(edge, stream.edges[surfaced]) << "corrupt edge surfaced";
    ++surfaced;
  }
  EXPECT_LT(surfaced, stream.size());
  EXPECT_TRUE(reader->ChecksumFailed() || reader->Truncated());
  // Only whole verified chunks precede the damage.
  EXPECT_EQ(surfaced % 4096, 0u);
}

// Chopping the file mid-chunk must replay the intact prefix and set
// Truncated() — this also exercises the lost-index scan path.
TEST_P(FormatMatrix, TruncationReplaysOnlyThePrefix) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string path = ConfigPath("trunc_matrix", options.prefetch);
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;
  TruncateFile(path, FileSize(path) / 2);

  auto reader = OpenBatchEdgeReader(path, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  size_t surfaced = 0;
  for (const Edge& edge : ReadBatches(*reader)) {
    ASSERT_EQ(edge, stream.edges[surfaced]) << "wrong edge after truncation";
    ++surfaced;
  }
  EXPECT_LT(surfaced, stream.size());
  EXPECT_TRUE(reader->Truncated());
  EXPECT_FALSE(reader->ChecksumFailed());
}

// Satellite: seeking past the surviving region of a truncated file must
// report damage through the flags on the next read — never garbage.
TEST_P(FormatMatrix, SeekPastTruncationReportsFlagsNotGarbage) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  ASSERT_GT(stream.size(), size_t{2} * 4096);
  std::string path = ConfigPath("seek_trunc", options.prefetch);
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
      << error;
  TruncateFile(path, FileSize(path) / 3);

  auto reader = OpenBatchEdgeReader(path, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  ASSERT_TRUE(reader->SeekToEdge(stream.size() - 1));
  EXPECT_TRUE(reader->NextBatch().empty())
      << "read an edge from a region the file no longer contains";
  EXPECT_TRUE(reader->Truncated() || reader->ChecksumFailed());
}

// A CRC-valid chunk naming ids outside the header's m × n is damage:
// every algorithm indexes its per-set and per-element state by id, so
// the reader must stop there (ChecksumFailed, nothing surfaced) rather
// than hand the ids on. Each id is checked: a set at m, an element at
// n, both far out.
TEST_P(FormatMatrix, OutOfRangeIdsMarkTheChunkDamaged) {
  StreamReadOptions options;
  options.prefetch = GetParam();
  for (const Edge outside : {Edge{16, 0}, Edge{0, 16}, Edge{5000, 5000}}) {
    EdgeStream stream;
    stream.meta = {16, 16, 64};
    for (uint32_t i = 0; i < 64; ++i) stream.edges.push_back({i % 16, i / 4});
    stream.edges[37] = outside;
    const std::string path = ConfigPath(
        ("range_" + std::to_string(outside.set) + "_" +
         std::to_string(outside.element))
            .c_str(),
        options.prefetch);
    std::string error;
    ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error))
        << error;

    auto reader = OpenBatchEdgeReader(path, options, &error);
    ASSERT_NE(reader, nullptr) << error;
    EXPECT_TRUE(reader->NextBatch().empty())
        << "set " << outside.set << ", element " << outside.element;
    EXPECT_TRUE(reader->ChecksumFailed());
    EXPECT_FALSE(reader->Truncated());
    EXPECT_EQ(reader->EdgesRead(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FormatMatrix,
    testing::Bool(), ConfigName);

TEST(StreamFormatTest, V3IsSmallerThanV2OnTable1Workloads) {
  // The Table-1 grid streams planted m ≈ n² instances element-major
  // (adversarial rows) and set-major (set-arrival row); those are the
  // files a long experiment sweep actually materializes. The yardstick
  // is the raw 8 bytes per edge a v2 chunk stored.
  Rng rng(1256);
  PlantedCoverParams params;
  params.num_elements = 256;
  params.num_sets = 256 * 256;
  params.planted_cover_size = 4;
  auto instance = GeneratePlantedCover(params, rng);

  for (StreamOrder order :
       {StreamOrder::kElementMajor, StreamOrder::kSetMajor}) {
    Rng order_rng(2256);
    EdgeStream stream = OrderedStream(instance, order, order_rng);
    const uint64_t raw_bytes = stream.size() * sizeof(Edge);
    std::string v3_path = TempPath("ratio_v3.bin");
    std::string error;
    ASSERT_TRUE(WriteStreamFile(stream, v3_path, StreamFormat::kV3, &error))
        << error;
    const double ratio = double(raw_bytes) / double(FileSize(v3_path));
    EXPECT_GE(ratio, 1.8) << "order " << StreamOrderName(order)
                          << ": raw=" << raw_bytes
                          << " v3=" << FileSize(v3_path);
  }

  // Random arrival order compresses worst (no set-id locality); v3 must
  // still be smaller than the raw edges.
  Rng order_rng(3256);
  EdgeStream stream =
      OrderedStream(instance, StreamOrder::kRandom, order_rng);
  std::string v3_path = TempPath("ratio_rand_v3.bin");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, v3_path, StreamFormat::kV3, &error));
  EXPECT_LT(FileSize(v3_path), stream.size() * sizeof(Edge));
}

TEST(StreamFormatTest, V3CorruptFooterFallsBackToHeaderScan) {
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string path = TempPath("badfooter.bin");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error));
  FlipByte(path, FileSize(path) - 1, 0xFF);  // last byte of "SCIX"

  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  size_t i = 0;
  for (const Edge& edge : ReadBatches(*reader))
    EXPECT_EQ(edge, stream.edges[i++]);
  EXPECT_EQ(i, stream.size());
  EXPECT_FALSE(reader->Truncated());
  EXPECT_FALSE(reader->ChecksumFailed());

  // Seeks still work off the scanned offsets.
  ASSERT_TRUE(reader->SeekToEdge(4097));
  const std::span<const Edge> batch = reader->NextBatch();
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(batch[0], stream.edges[4097]);
}

TEST(StreamFormatTest, V3LosingOnlyTheIndexLosesNoEdges) {
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string path = TempPath("noindex.bin");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error));
  const size_t chunks = (stream.size() + 4095) / 4096;
  TruncateFile(path, FileSize(path) - (chunks * 8 + 16));

  auto reader = StreamFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  size_t i = 0;
  for (const Edge& edge : ReadBatches(*reader))
    EXPECT_EQ(edge, stream.edges[i++]);
  EXPECT_EQ(i, stream.size());
  EXPECT_FALSE(reader->Truncated());
}

TEST(StreamFormatTest, V3EmptyStreamRoundTrips) {
  EdgeStream stream;
  stream.meta = {9, 4, 0};
  std::string path = TempPath("empty_v3.bin");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, StreamFormat::kV3, &error));
  for (bool prefetch : {false, true}) {
    StreamReadOptions options;
    options.prefetch = prefetch;
    auto reader = OpenBatchEdgeReader(path, options, &error);
    ASSERT_NE(reader, nullptr) << error;
    EXPECT_EQ(reader->Meta().num_sets, 9u);
    EXPECT_TRUE(reader->NextBatch().empty());
  }
}

TEST(StreamFormatTest, WriterReportsErrnoDerivedErrors) {
  EdgeStream stream = SmallStream(StreamOrder::kRandom);
  std::string error;
  EXPECT_FALSE(WriteStreamFile(stream, "/nonexistent-dir/deep/s.bin",
                               StreamFormat::kV3, &error));
  EXPECT_NE(error.find("cannot create"), std::string::npos) << error;
  EXPECT_NE(error.find("No such file or directory"), std::string::npos)
      << error;
}

TEST(StreamFormatTest, ReaderReportsErrnoDerivedOpenErrors) {
  std::string error;
  EXPECT_EQ(StreamFileReader::Open("/nonexistent-dir/s.bin", &error),
            nullptr);
  EXPECT_NE(error.find("No such file or directory"), std::string::npos)
      << error;
}

// Every read is from a mapping, with no fallback: a path that opens but
// will not map as a stream file (a directory) is an open error.
TEST(StreamFormatTest, UnmappableFileIsAnOpenError) {
  std::string error;
  EXPECT_EQ(StreamFileReader::Open(testing::TempDir(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace setcover
