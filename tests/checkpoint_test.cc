#include "run/checkpoint.h"

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"

namespace setcover {
namespace {

Checkpoint SampleCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.algorithm_name = "random-order-sketch";
  checkpoint.meta.num_sets = 120;
  checkpoint.meta.num_elements = 80;
  checkpoint.meta.stream_length = 4096;
  checkpoint.stream_position = 1234;
  checkpoint.edges_delivered = 1200;
  checkpoint.transient_retries = 7;
  checkpoint.corrupt_skipped = 3;
  checkpoint.faults_survived = 10;
  checkpoint.session_sequence = 42;
  for (uint64_t i = 0; i < 500; ++i)
    checkpoint.state_words.push_back(i * 0x9E3779B97F4A7C15ULL);
  return checkpoint;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(CheckpointTest, RoundTripsEveryField) {
  const std::string path = TempPath("ckpt_roundtrip.sckp");
  Checkpoint original = SampleCheckpoint();
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(original, path, &error)) << error;

  auto loaded = LoadCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->algorithm_name, original.algorithm_name);
  EXPECT_EQ(loaded->meta.num_sets, original.meta.num_sets);
  EXPECT_EQ(loaded->meta.num_elements, original.meta.num_elements);
  EXPECT_EQ(loaded->meta.stream_length, original.meta.stream_length);
  EXPECT_EQ(loaded->stream_position, original.stream_position);
  EXPECT_EQ(loaded->edges_delivered, original.edges_delivered);
  EXPECT_EQ(loaded->transient_retries, original.transient_retries);
  EXPECT_EQ(loaded->corrupt_skipped, original.corrupt_skipped);
  EXPECT_EQ(loaded->faults_survived, original.faults_survived);
  EXPECT_EQ(loaded->session_sequence, original.session_sequence);
  EXPECT_EQ(loaded->state_words, original.state_words);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadsVersion1FilesWithZeroSessionSequence) {
  // Hand-assemble a v1 file (the pre-session layout, no
  // session_sequence field) and check it still loads.
  auto put32 = [](std::vector<uint8_t>* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
  };
  auto put64 = [](std::vector<uint8_t>* out, uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
  };
  const std::string name = "kk";
  std::vector<uint8_t> bytes;
  put32(&bytes, 0x504B4353u);  // "SCKP"
  put32(&bytes, 1);            // version 1
  put32(&bytes, uint32_t(name.size()));
  for (char c : name) bytes.push_back(uint8_t(c));
  put32(&bytes, 10);   // m
  put32(&bytes, 20);   // n
  put64(&bytes, 30);   // N
  put64(&bytes, 5);    // stream_position
  put64(&bytes, 5);    // edges_delivered
  put64(&bytes, 1);    // transient_retries
  put64(&bytes, 2);    // corrupt_skipped
  put64(&bytes, 3);    // faults_survived
  put64(&bytes, 2);    // state_len
  put64(&bytes, 77);
  put64(&bytes, 88);
  put32(&bytes, Crc32(bytes.data() + 4, bytes.size() - 4));

  const std::string path = TempPath("ckpt_v1.sckp");
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);

  std::string error;
  auto loaded = LoadCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->algorithm_name, "kk");
  EXPECT_EQ(loaded->meta.num_sets, 10u);
  EXPECT_EQ(loaded->session_sequence, 0u);
  EXPECT_EQ(loaded->state_words, (std::vector<uint64_t>{77, 88}));
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsUnknownFutureVersion) {
  const std::string path = TempPath("ckpt_future.sckp");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path, &error)) << error;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Overwrite the version field (bytes 4..7) with 99 and re-CRC is not
  // even needed: a bad version must fail before the CRC could pass.
  std::fseek(f, 4, SEEK_SET);
  uint32_t future = 99;
  ASSERT_EQ(std::fwrite(&future, 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveLeavesNoTempFileBehind) {
  const std::string path = TempPath("ckpt_atomic.sckp");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path, &error)) << error;
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsEveryCorruptedByte) {
  const std::string path = TempPath("ckpt_corrupt.sckp");
  std::string error;
  Checkpoint small = SampleCheckpoint();
  small.state_words.resize(8);
  ASSERT_TRUE(SaveCheckpoint(small, path, &error)) << error;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes(1 << 16);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  ASSERT_GT(bytes.size(), 12u);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> damaged = bytes;
    damaged[i] ^= 0x20;
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), out),
              damaged.size());
    std::fclose(out);
    EXPECT_FALSE(LoadCheckpoint(path, &error).has_value())
        << "byte " << i << " corruption went undetected";
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsTruncation) {
  const std::string path = TempPath("ckpt_truncated.sckp");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path, &error)) << error;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes(1 << 20);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);

  for (size_t keep : {size_t{0}, size_t{4}, size_t{11}, bytes.size() / 2,
                      bytes.size() - 1}) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, keep, out), keep);
    std::fclose(out);
    EXPECT_FALSE(LoadCheckpoint(path, &error).has_value())
        << "truncation to " << keep << " bytes went undetected";
  }
  std::remove(path.c_str());
}

// --- Byte identity against the per-byte reference encoder -----------

void RefU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void RefU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

/// The checkpoint body as the writer first encoded it: one byte at a
/// time, in field order.
void RefBody(std::vector<uint8_t>* out, const Checkpoint& checkpoint) {
  RefU32(out, uint32_t(checkpoint.algorithm_name.size()));
  for (char c : checkpoint.algorithm_name) out->push_back(uint8_t(c));
  RefU32(out, checkpoint.meta.num_sets);
  RefU32(out, checkpoint.meta.num_elements);
  RefU64(out, checkpoint.meta.stream_length);
  RefU64(out, checkpoint.stream_position);
  RefU64(out, checkpoint.edges_delivered);
  RefU64(out, checkpoint.transient_retries);
  RefU64(out, checkpoint.corrupt_skipped);
  RefU64(out, checkpoint.faults_survived);
  RefU64(out, checkpoint.session_sequence);
  RefU64(out, checkpoint.state_words.size());
  for (uint64_t w : checkpoint.state_words) RefU64(out, w);
}

std::vector<uint8_t> RefWithCrc(std::vector<uint8_t> bytes) {
  RefU32(&bytes, Crc32(bytes.data() + 4, bytes.size() - 4));
  return bytes;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return bytes;
  uint8_t buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, in)) > 0)
    bytes.insert(bytes.end(), buffer, buffer + got);
  std::fclose(in);
  return bytes;
}

Checkpoint CheckpointWithWords(size_t words, uint64_t salt) {
  Checkpoint checkpoint = SampleCheckpoint();
  checkpoint.session_sequence = salt;
  checkpoint.state_words.clear();
  uint64_t x = 0x9E3779B97F4A7C15ULL ^ salt;
  for (size_t i = 0; i < words; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    checkpoint.state_words.push_back(x);
  }
  return checkpoint;
}

TEST(CheckpointTest, SckpBytesMatchThePerByteEncoder) {
  const std::string path = TempPath("ckpt_bytes.sckp");
  for (const size_t words : {size_t(0), size_t(1), size_t(6200),
                             size_t(80700)}) {
    const Checkpoint checkpoint = CheckpointWithWords(words, words);
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(checkpoint, path, &error)) << error;
    std::vector<uint8_t> expected;
    RefU32(&expected, 0x504B4353u);  // "SCKP"
    RefU32(&expected, 2);
    RefBody(&expected, checkpoint);
    EXPECT_EQ(ReadFile(path), RefWithCrc(expected)) << words << " words";
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ScshBytesMatchThePerByteEncoder) {
  const std::string path = TempPath("ckpt_bytes.scsh");
  ShardedCheckpoint sharded;
  sharded.shards = 6;
  sharded.partitioner = "set-modulo";
  // Every tested size, with absent slots at both ends and in between.
  sharded.shard_states = {std::nullopt,
                          CheckpointWithWords(0, 1),
                          CheckpointWithWords(1, 2),
                          std::nullopt,
                          CheckpointWithWords(6200, 3),
                          CheckpointWithWords(80700, 4)};
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      std::swap(sharded.shard_states[0], sharded.shard_states[5]);
    }
    std::string error;
    ASSERT_TRUE(SaveShardedCheckpoint(sharded, path, &error)) << error;
    std::vector<uint8_t> expected;
    RefU32(&expected, 0x48534353u);  // "SCSH"
    RefU32(&expected, 1);
    RefU32(&expected, sharded.shards);
    RefU32(&expected, uint32_t(sharded.partitioner.size()));
    for (char c : sharded.partitioner) expected.push_back(uint8_t(c));
    for (const std::optional<Checkpoint>& slot : sharded.shard_states) {
      RefU32(&expected, slot.has_value() ? 1 : 0);
      if (slot.has_value()) RefBody(&expected, *slot);
    }
    EXPECT_EQ(ReadFile(path), RefWithCrc(expected)) << "round " << round;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsAnError) {
  std::string error;
  EXPECT_FALSE(
      LoadCheckpoint(TempPath("ckpt_does_not_exist.sckp"), &error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace setcover
