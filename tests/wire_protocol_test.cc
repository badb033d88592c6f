// The session-server wire protocol: every message type round-trips
// bit-exactly, and no single-byte corruption, truncation, oversize, or
// trailing-garbage frame survives DecodeMessage. scripts/check.sh runs
// this under ASan — hostile bytes must fail cleanly, never crash.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "util/crc32.h"

namespace setcover {
namespace server {
namespace {

Message SampleOpen() {
  Message m;
  m.type = MessageType::kOpen;
  m.session_id = 42;
  m.open.algorithm = "greedy-threshold";
  m.open.seed = 21;
  m.open.meta.num_sets = 80;
  m.open.meta.num_elements = 60;
  m.open.meta.stream_length = 512;
  m.open.checkpoint_every = 64;
  FaultSchedule faults = FaultSchedule::AllKinds(7);
  m.open.faults = faults;
  return m;
}

Message SampleIngest() {
  Message m;
  m.type = MessageType::kIngest;
  m.session_id = 42;
  m.sequence = 17;
  for (uint32_t i = 0; i < 100; ++i)
    m.edges.push_back(Edge{i % 13, i % 7});
  return m;
}

Message SampleFinalizeOk() {
  Message m;
  m.type = MessageType::kFinalizeOk;
  m.session_id = 42;
  m.degraded = true;
  m.edges_delivered = 512;
  m.uncovered_elements = 3;
  m.peak_words = 1000;
  m.current_words = 900;
  m.transient_retries = 4;
  m.corrupt_records_skipped = 5;
  m.faults_survived = 9;
  m.cover = {1, 5, 9};
  m.certificate = {1, 1, 5, 9, 5};
  return m;
}

Message SampleSessionStats() {
  Message m;
  m.type = MessageType::kStatsOk;
  m.session_id = 42;
  m.session_stats.edges_delivered = 512;
  m.session_stats.batches = 8;
  m.session_stats.ingest_calls = 8;
  m.session_stats.duplicate_ingests = 2;
  m.session_stats.checkpoints_written = 3;
  m.session_stats.transient_retries = 4;
  m.session_stats.corrupt_records_skipped = 5;
  m.session_stats.faults_survived = 9;
  m.session_stats.last_sequence = 8;
  m.session_stats.resumed = true;
  m.session_stats.finalized = false;
  m.session_stats.degraded = true;
  m.session_stats.setup_seconds = 0.25;
  m.session_stats.stream_seconds = 1.5;
  m.session_stats.finalize_seconds = 0.125;
  m.session_stats.peak_words = 1000;
  m.session_stats.current_words = 900;
  return m;
}

std::vector<Message> AllSamples() {
  std::vector<Message> samples;
  samples.push_back(SampleOpen());
  {
    Message m = SampleOpen();  // open without faults
    m.open.faults.reset();
    samples.push_back(m);
  }
  samples.push_back(SampleIngest());
  {
    Message m = SampleIngest();  // empty batch is legal
    m.edges.clear();
    samples.push_back(m);
  }
  for (MessageType type : {MessageType::kCheckpoint, MessageType::kClose,
                           MessageType::kCloseOk}) {
    Message m;
    m.type = type;
    m.session_id = 42;
    samples.push_back(m);
  }
  {
    Message m;  // finalize, fenced on cursor 7
    m.type = MessageType::kFinalize;
    m.session_id = 42;
    m.sequence = 7;
    samples.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kOpenOk;
    m.session_id = 42;
    m.resumed = true;
    m.last_sequence = 17;
    m.edges_delivered = 512;
    samples.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kIngestOk;
    m.session_id = 42;
    m.duplicate = true;
    m.last_sequence = 17;
    m.checkpoints_written = 1;
    samples.push_back(m);
  }
  {
    Message m;
    m.type = MessageType::kCheckpointOk;
    m.session_id = 42;
    m.checkpoints_written = 3;
    samples.push_back(m);
  }
  samples.push_back(SampleFinalizeOk());
  samples.push_back(SampleSessionStats());
  {
    Message m;  // server-scope stats
    m.type = MessageType::kStatsOk;
    m.session_id = 0;
    m.open_sessions = 12;
    m.frames_received = 999;
    m.sheds = 7;
    m.total_edges_delivered = 123456;
    samples.push_back(m);
  }
  samples.push_back(MakeRetryAfter(42, 500, RetryReason::kDraining));
  samples.push_back(MakeError(42, "something broke"));
  return samples;
}

void ExpectEqual(const Message& a, const Message& b,
                 const std::string& context) {
  EXPECT_EQ(int(a.type), int(b.type)) << context;
  EXPECT_EQ(a.session_id, b.session_id) << context;
  EXPECT_EQ(a.open.algorithm, b.open.algorithm) << context;
  EXPECT_EQ(a.open.seed, b.open.seed) << context;
  EXPECT_EQ(a.open.meta.num_sets, b.open.meta.num_sets) << context;
  EXPECT_EQ(a.open.meta.num_elements, b.open.meta.num_elements) << context;
  EXPECT_EQ(a.open.meta.stream_length, b.open.meta.stream_length) << context;
  EXPECT_EQ(a.open.checkpoint_every, b.open.checkpoint_every) << context;
  ASSERT_EQ(a.open.faults.has_value(), b.open.faults.has_value()) << context;
  if (a.open.faults.has_value()) {
    EXPECT_EQ(a.open.faults->seed, b.open.faults->seed) << context;
    EXPECT_EQ(a.open.faults->transient_rate, b.open.faults->transient_rate)
        << context;
    EXPECT_EQ(a.open.faults->duplicate_rate, b.open.faults->duplicate_rate)
        << context;
    EXPECT_EQ(a.open.faults->drop_rate, b.open.faults->drop_rate) << context;
    EXPECT_EQ(a.open.faults->corrupt_rate, b.open.faults->corrupt_rate)
        << context;
    EXPECT_EQ(a.open.faults->transient_failures,
              b.open.faults->transient_failures)
        << context;
  }
  EXPECT_EQ(a.sequence, b.sequence) << context;
  ASSERT_EQ(a.edges.size(), b.edges.size()) << context;
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].set, b.edges[i].set) << context;
    EXPECT_EQ(a.edges[i].element, b.edges[i].element) << context;
  }
  EXPECT_EQ(a.resumed, b.resumed) << context;
  EXPECT_EQ(a.duplicate, b.duplicate) << context;
  EXPECT_EQ(a.last_sequence, b.last_sequence) << context;
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written) << context;
  EXPECT_EQ(a.degraded, b.degraded) << context;
  EXPECT_EQ(a.edges_delivered, b.edges_delivered) << context;
  EXPECT_EQ(a.uncovered_elements, b.uncovered_elements) << context;
  EXPECT_EQ(a.peak_words, b.peak_words) << context;
  EXPECT_EQ(a.current_words, b.current_words) << context;
  EXPECT_EQ(a.transient_retries, b.transient_retries) << context;
  EXPECT_EQ(a.corrupt_records_skipped, b.corrupt_records_skipped) << context;
  EXPECT_EQ(a.faults_survived, b.faults_survived) << context;
  EXPECT_EQ(a.cover, b.cover) << context;
  EXPECT_EQ(a.certificate, b.certificate) << context;
  EXPECT_EQ(a.session_stats.edges_delivered,
            b.session_stats.edges_delivered)
      << context;
  EXPECT_EQ(a.session_stats.last_sequence, b.session_stats.last_sequence)
      << context;
  EXPECT_EQ(a.session_stats.setup_seconds, b.session_stats.setup_seconds)
      << context;
  EXPECT_EQ(a.session_stats.resumed, b.session_stats.resumed) << context;
  EXPECT_EQ(a.open_sessions, b.open_sessions) << context;
  EXPECT_EQ(a.frames_received, b.frames_received) << context;
  EXPECT_EQ(a.sheds, b.sheds) << context;
  EXPECT_EQ(a.total_edges_delivered, b.total_edges_delivered) << context;
  EXPECT_EQ(a.retry_after_us, b.retry_after_us) << context;
  EXPECT_EQ(int(a.retry_reason), int(b.retry_reason)) << context;
  EXPECT_EQ(a.error, b.error) << context;
}

TEST(WireProtocol, EveryMessageTypeRoundTrips) {
  for (const Message& sample : AllSamples()) {
    const std::string context = "type=" + std::to_string(int(sample.type));
    const std::vector<uint8_t> payload = EncodeMessage(sample);
    std::string error;
    std::optional<Message> decoded = DecodeMessage(payload, &error);
    ASSERT_TRUE(decoded.has_value()) << context << ": " << error;
    ExpectEqual(sample, *decoded, context);
  }
}

// The ASan fuzz surface: flipping any single byte of any sample frame
// must be caught by the CRC-32C — a clean reject with a diagnostic,
// never a crash or overrun.
TEST(WireProtocol, EverySingleByteFlipIsRejected) {
  for (const Message& sample : AllSamples()) {
    const std::vector<uint8_t> payload = EncodeMessage(sample);
    for (size_t i = 0; i < payload.size(); ++i) {
      for (uint8_t flip : {uint8_t(0x01), uint8_t(0x80), uint8_t(0xff)}) {
        std::vector<uint8_t> damaged = payload;
        damaged[i] ^= flip;
        std::string error;
        EXPECT_FALSE(DecodeMessage(damaged, &error).has_value())
            << "type=" << int(sample.type) << " byte=" << i;
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

TEST(WireProtocol, TruncationAtEveryLengthIsRejected) {
  const std::vector<uint8_t> payload = EncodeMessage(SampleIngest());
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    std::vector<uint8_t> truncated(payload.begin(), payload.begin() + keep);
    std::string error;
    EXPECT_FALSE(DecodeMessage(truncated, &error).has_value())
        << "keep=" << keep;
  }
}

// Even with a freshly recomputed (valid) CRC, bytes the body does not
// consume must fail decoding — nothing may smuggle a payload ride-along.
TEST(WireProtocol, TrailingBytesAreRejectedEvenWithValidCrc) {
  Message m;
  m.type = MessageType::kCheckpointOk;
  m.session_id = 1;
  m.checkpoints_written = 2;
  std::vector<uint8_t> payload = EncodeMessage(m);
  payload.resize(payload.size() - 4);  // strip the CRC
  payload.push_back(0xaa);             // trailing garbage
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) payload.push_back(uint8_t(crc >> (8 * i)));

  std::string error;
  EXPECT_FALSE(DecodeMessage(payload, &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(WireProtocol, OversizeFramesAndOversizeBatchesAreRejected) {
  std::vector<uint8_t> huge(kMaxFrameBytes + 1, 0);
  std::string error;
  EXPECT_FALSE(DecodeMessage(huge, &error).has_value());
  EXPECT_NE(error.find("too large"), std::string::npos) << error;

  Message m = SampleIngest();
  m.edges.assign(kMaxIngestEdges + 1, Edge{1, 1});
  const std::vector<uint8_t> payload = EncodeMessage(m);
  EXPECT_FALSE(DecodeMessage(payload, &error).has_value());
}

// A kOpen's worker count sizes the session the server builds, so the
// decoder bounds it the way it bounds the algorithm name: the bound
// itself decodes, anything above is refused before a session exists.
TEST(WireProtocol, OpenWorkersAboveTheBoundAreRejected) {
  std::string error;
  Message m = SampleOpen();
  m.open.workers = kMaxSessionWorkers;
  std::optional<Message> decoded = DecodeMessage(EncodeMessage(m), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->open.workers, kMaxSessionWorkers);

  for (const uint32_t workers : {kMaxSessionWorkers + 1, 0xFFFFFFFFu}) {
    m.open.workers = workers;
    EXPECT_FALSE(DecodeMessage(EncodeMessage(m), &error).has_value())
        << workers;
    EXPECT_NE(error.find("kMaxSessionWorkers"), std::string::npos)
        << error;
  }
}

// The zero-copy ingest encoder must be indistinguishable on the wire
// from the Message-based one, batch by batch — including empty.
TEST(WireProtocol, EncodeIngestMatchesEncodeMessageByteForByte) {
  for (const size_t count : {size_t(0), size_t(1), size_t(100),
                             size_t(4096)}) {
    std::vector<Edge> edges;
    for (size_t i = 0; i < count; ++i)
      edges.push_back(Edge{uint32_t(i * 7 % 1000), uint32_t(i % 61)});

    Message m;
    m.type = MessageType::kIngest;
    m.session_id = 42;
    m.sequence = 17;
    m.edges = edges;
    const std::vector<uint8_t> via_message = EncodeMessage(m);

    std::vector<uint8_t> via_span;
    EncodeIngest(42, 17, edges, &via_span);
    EXPECT_EQ(via_span, via_message) << "count=" << count;
  }
}

// The arena overload must produce identical bytes even into a dirty
// buffer left over from a previous (larger) message.
TEST(WireProtocol, ArenaEncodeIntoDirtyBufferIsIdentical) {
  const Message big = SampleFinalizeOk();
  const Message small = SampleIngest();
  std::vector<uint8_t> arena;
  EncodeMessage(big, &arena);
  EXPECT_EQ(arena, EncodeMessage(big));
  EncodeMessage(small, &arena);
  EXPECT_EQ(arena, EncodeMessage(small));

  std::vector<uint8_t> dirty(4096, 0xee);
  EncodeIngest(small.session_id, small.sequence, small.edges, &dirty);
  EXPECT_EQ(dirty, EncodeMessage(small));
}

// A maximum-size batch survives the bulk encode/decode round trip.
TEST(WireProtocol, MaxBatchRoundTripsThroughBulkPaths) {
  std::vector<Edge> edges(kMaxIngestEdges);
  for (size_t i = 0; i < edges.size(); ++i)
    edges[i] = Edge{uint32_t(i), uint32_t(~i)};
  std::vector<uint8_t> payload;
  EncodeIngest(7, 123456789, edges, &payload);
  ASSERT_LE(payload.size(), kMaxFrameBytes);

  std::string error;
  std::optional<Message> decoded = DecodeMessage(payload, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->type, MessageType::kIngest);
  EXPECT_EQ(decoded->session_id, 7u);
  EXPECT_EQ(decoded->sequence, 123456789u);
  ASSERT_EQ(decoded->edges.size(), edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(decoded->edges[i].set, edges[i].set) << i;
    ASSERT_EQ(decoded->edges[i].element, edges[i].element) << i;
  }
}

TEST(WireProtocol, UnknownTypeWithValidCrcIsRejected) {
  Message m;
  m.type = MessageType::kCheckpointOk;
  m.session_id = 9;
  std::vector<uint8_t> payload = EncodeMessage(m);
  payload[0] = 200;  // not a MessageType
  const uint32_t crc = Crc32c(payload.data(), payload.size() - 4);
  for (int i = 0; i < 4; ++i)
    payload[payload.size() - 4 + i] = uint8_t(crc >> (8 * i));
  std::string error;
  EXPECT_FALSE(DecodeMessage(payload, &error).has_value());
  EXPECT_NE(error.find("unknown"), std::string::npos) << error;
}

}  // namespace
}  // namespace server
}  // namespace setcover
