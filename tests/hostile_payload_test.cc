// CRC-valid but hostile stream-file bodies. Stream-file v3 decodes its
// chunk payloads through simd::Kernels::decode_varint_pairs plus a
// scalar loop for whatever the kernel leaves; the contract is that every
// tier decodes every payload as the scalar tier does — same edges, same
// ChecksumFailed(), same Truncated() — and that the scalar tier is the
// GetVarint loop with the id-range rule (stream.h's EdgesInRange). The
// cases below are the inputs where a vectorized varint decoder goes
// wrong: over-long and non-canonical varints, 5-byte values of 2^32 or
// more, ids outside m × n, payloads that end early or late, payload
// sizes around the 16-byte window, and a seeded mutation loop. Each
// file is written with its CRCs re-stamped, so the hostile body gets
// past the checksums. Last, every algorithm and format replays the
// out-of-range repro through engine::Execute and must end degraded.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "stream/stream_file.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/varint.h"

namespace setcover {
namespace {

// PID-qualified: ctest runs the discovered cases of this binary in
// parallel processes on the same TempDir.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/hostile_" + std::to_string(getpid()) + "_" +
         name;
}

std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::MaxSupportedLevel() >= simd::Level::kSse42) {
    levels.push_back(simd::Level::kSse42);
  }
  if (simd::MaxSupportedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

/// One v3 chunk body: `count` edges declared, `payload` as the bytes.
struct Body {
  std::string name;
  uint32_t m = 0;
  uint32_t n = 0;
  uint32_t count = 0;
  std::vector<uint8_t> payload;
};

// Failure messages name the body rather than dumping its bytes.
void PrintTo(const Body& body, std::ostream* os) { *os << body.name; }

/// The writer's encoding of `edges` (zig-zag set delta, then element).
std::vector<uint8_t> Encode(const std::vector<Edge>& edges) {
  std::vector<uint8_t> payload;
  int64_t previous = 0;
  for (const Edge& edge : edges) {
    AppendVarint(&payload, ZigZagEncode(int64_t(edge.set) - previous));
    AppendVarint(&payload, edge.element);
    previous = int64_t(edge.set);
  }
  return payload;
}

/// `count` random edges inside m × n.
std::vector<Edge> RandomEdges(Rng& rng, size_t count, uint32_t m,
                              uint32_t n) {
  std::vector<Edge> edges(count);
  for (Edge& edge : edges) {
    edge = {SetId(rng.Next64() % m), ElementId(rng.Next64() % n)};
  }
  return edges;
}

/// Writes `body` as a one-chunk v3 file, header, chunk and index CRCs
/// all stamped over the bytes as given.
std::string WriteV3(const Body& body, const std::string& tag) {
  std::vector<uint8_t> file = {'S', 'C', 'E', 'S'};
  auto put = [&file](const void* data, size_t bytes) {
    const auto* p = static_cast<const uint8_t*>(data);
    file.insert(file.end(), p, p + bytes);
  };
  const uint32_t version = 3;
  const uint64_t big_n = body.count;
  uint8_t header[20];
  std::memcpy(header, &version, 4);
  std::memcpy(header + 4, &body.m, 4);
  std::memcpy(header + 8, &body.n, 4);
  std::memcpy(header + 12, &big_n, 8);
  put(header, sizeof(header));
  const uint32_t header_crc = Crc32(header, sizeof(header));
  put(&header_crc, 4);
  const uint64_t chunk_offset = file.size();
  const uint32_t payload_bytes = uint32_t(body.payload.size());
  const uint32_t payload_crc =
      Crc32c(body.payload.data(), body.payload.size());
  put(&body.count, 4);
  put(&payload_bytes, 4);
  put(&payload_crc, 4);
  put(body.payload.data(), body.payload.size());
  const uint64_t index_offset = file.size();
  put(&chunk_offset, 8);
  const uint32_t index_crc = Crc32c(&chunk_offset, 8);
  put(&index_crc, 4);
  put(&index_offset, 8);
  put("SCIX", 4);

  const std::string path = TempPath(tag + ".v3");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return path;
  EXPECT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
  std::fclose(f);
  return path;
}

/// What a reader surfaced from one file.
struct Replay {
  std::vector<Edge> edges;
  bool checksum_failed = false;
  bool truncated = false;

  friend bool operator==(const Replay&, const Replay&) = default;
};

/// Reads `path` whole with the given tier active.
Replay ReadAt(const std::string& path, simd::Level level, bool use_mmap) {
  const simd::Level previous = simd::ForceLevelForTest(level);
  StreamReadOptions options;
  options.use_mmap = use_mmap;
  options.prefetch = false;
  std::string error;
  Replay replay;
  auto reader = StreamFileReader::Open(path, options, &error);
  EXPECT_NE(reader, nullptr) << error;
  if (reader != nullptr) {
    for (auto batch = reader->NextBatch(); !batch.empty();
         batch = reader->NextBatch()) {
      replay.edges.insert(replay.edges.end(), batch.begin(), batch.end());
    }
    replay.checksum_failed = reader->ChecksumFailed();
    replay.truncated = reader->Truncated();
  }
  simd::ForceLevelForTest(previous);
  return replay;
}

/// The verdict the format defines, written out independently: GetVarint
/// per value, the running set id in [0, m), every element below n, and
/// no byte left over. nullopt = damaged.
std::optional<std::vector<Edge>> Reference(const Body& body) {
  const uint8_t* cursor = body.payload.data();
  const uint8_t* const end = cursor + body.payload.size();
  std::vector<Edge> edges;
  __int128 set = 0;
  for (uint32_t i = 0; i < body.count; ++i) {
    uint64_t delta = 0, element = 0;
    if (!GetVarint(&cursor, end, &delta) || !GetVarint(&cursor, end, &element))
      return std::nullopt;
    set += ZigZagDecode(delta);
    if (set < 0 || set >= body.m || element >= body.n) return std::nullopt;
    edges.push_back({SetId(set), ElementId(element)});
  }
  if (cursor != end) return std::nullopt;
  return edges;
}

/// The file-level differential: every tier on both backends surfaces
/// what the scalar tier surfaces, and the scalar tier surfaces the
/// reference verdict.
void ExpectEveryTierMatchesScalar(const Body& body, const std::string& tag) {
  const std::string path = WriteV3(body, tag);
  const Replay scalar = ReadAt(path, simd::Level::kScalar, true);
  const std::optional<std::vector<Edge>> expected = Reference(body);
  EXPECT_FALSE(scalar.truncated) << tag;
  EXPECT_EQ(scalar.checksum_failed, !expected.has_value()) << tag;
  if (expected.has_value()) {
    EXPECT_EQ(scalar.edges, *expected) << tag;
  } else {
    EXPECT_TRUE(scalar.edges.empty()) << tag;
  }
  for (simd::Level level : TestableLevels()) {
    for (bool use_mmap : {true, false}) {
      EXPECT_EQ(ReadAt(path, level, use_mmap), scalar)
          << tag << " at " << simd::LevelName(level)
          << (use_mmap ? " (mmap)" : " (stdio)");
    }
  }
  std::remove(path.c_str());
}

/// The kernel-level differential: (pairs taken, bytes consumed, values)
/// equal the scalar tier's at every tier, for the whole payload and for
/// a few shorter pair budgets. The payload sits in an exactly sized
/// allocation, so ASan sees any read past `size`.
void ExpectKernelMatchesScalar(const std::vector<uint8_t>& payload,
                               size_t max_pairs, const std::string& tag) {
  const std::vector<uint8_t> bytes(payload);
  const simd::Kernels& scalar = simd::ForLevel(simd::Level::kScalar);
  for (size_t budget : {max_pairs, max_pairs / 2, size_t{1}, size_t{0}}) {
    std::vector<uint32_t> expected(2 * budget + 2, 0xDEADBEEF);
    size_t expected_consumed = 0;
    const size_t expected_taken =
        scalar.decode_varint_pairs(bytes.data(), bytes.size(), budget,
                                   expected.data(), &expected_consumed);
    ASSERT_LE(expected_taken, budget) << tag;
    ASSERT_LE(expected_consumed, bytes.size()) << tag;
    for (simd::Level level : TestableLevels()) {
      std::vector<uint32_t> actual(2 * budget + 2, 0xDEADBEEF);
      size_t consumed = 0;
      const size_t taken = simd::ForLevel(level).decode_varint_pairs(
          bytes.data(), bytes.size(), budget, actual.data(), &consumed);
      const std::string context = tag + " budget=" + std::to_string(budget) +
                                  " at " + simd::LevelName(level);
      ASSERT_EQ(taken, expected_taken) << context;
      ASSERT_EQ(consumed, expected_consumed) << context;
      for (size_t i = 0; i < 2 * taken; ++i) {
        ASSERT_EQ(actual[i], expected[i]) << context << " value " << i;
      }
      // Nothing is written past the pair budget.
      EXPECT_EQ(actual[2 * budget], 0xDEADBEEF) << context;
      EXPECT_EQ(actual[2 * budget + 1], 0xDEADBEEF) << context;
    }
  }
}

/// A long, valid body (four decode chains' worth of pairs) with one
/// `edit` pair spliced in before pair `at`: the hostile bytes land
/// inside the vector path, not just its scalar tail. Edits use a zero
/// delta (or none that can be valid), so the ids around them hold.
Body Spliced(const std::string& name, uint32_t m, uint32_t n, size_t at,
             const std::vector<uint8_t>& edit) {
  Rng rng(1503);
  const std::vector<Edge> edges = RandomEdges(rng, at + 2048, m, n);
  std::vector<uint8_t> payload = Encode(edges);
  const size_t offset =
      Encode(std::vector<Edge>(edges.begin(), edges.begin() + long(at)))
          .size();
  payload.insert(payload.begin() + long(offset), edit.begin(), edit.end());
  return {name, m, n, uint32_t(edges.size() + 1), payload};
}

std::vector<uint8_t> Pair(std::initializer_list<uint8_t> delta,
                          std::initializer_list<uint8_t> element) {
  std::vector<uint8_t> bytes(delta);
  bytes.insert(bytes.end(), element);
  return bytes;
}

/// The named hostile bodies, and whether each is legal.
std::vector<Body> HostileBodies() {
  constexpr uint32_t kM = 1u << 17;
  constexpr uint32_t kN = 4096;
  std::vector<Body> bodies;
  // Over-long varints of a small value: 6 and 10 bytes still decode
  // (GetVarint takes up to 10), 11 bytes is damage.
  bodies.push_back(Spliced("six_byte_element", kM, kN, 1500,
                           Pair({0x00}, {0x87, 0x80, 0x80, 0x80, 0x80, 0x00})));
  bodies.push_back(Spliced("six_byte_delta", kM, kN, 1500,
                           Pair({0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, {0x07})));
  bodies.push_back(Spliced("ten_byte_element", kM, kN, 700,
                           Pair({0x00}, {0x85, 0x80, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x00})));
  bodies.push_back(Spliced("eleven_byte_element", kM, kN, 2900,
                           Pair({0x00}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x80, 0x00})));
  // Non-canonical encodings of zero: 2 and 5 bytes.
  bodies.push_back(
      Spliced("two_byte_zero", kM, kN, 1024, Pair({0x80, 0x00}, {0x80, 0x00})));
  bodies.push_back(Spliced("five_byte_zero", kM, kN, 1023,
                           Pair({0x80, 0x80, 0x80, 0x80, 0x00},
                                {0x80, 0x80, 0x80, 0x80, 0x00})));
  // 5-byte values of 2^32 and more. As an element it is outside any n.
  bodies.push_back(Spliced("element_two_to_32", kM, kN, 2047,
                           Pair({0x00}, {0x80, 0x80, 0x80, 0x80, 0x10})));
  bodies.push_back(Spliced("element_two_to_35_minus_1", kM, kN, 2048,
                           Pair({0x00}, {0xFF, 0xFF, 0xFF, 0xFF, 0x7F})));
  // As a delta it is legal when m is large enough: sets 0 → 2^31
  // (zig-zag 2^32) → 2^32 − 2 → 0 (zig-zag 2^33 − 5), three times over.
  {
    Rng rng(7);
    std::vector<Edge> edges;
    for (int block = 0; block < 3; ++block) {
      for (const Edge& edge : RandomEdges(rng, 600, 16, 16)) {
        edges.push_back(edge);
      }
      edges.push_back({0, 1});
      edges.push_back({0x80000000u, 3});
      edges.push_back({0xFFFFFFFEu, 4});
      edges.push_back({0, 5});
    }
    bodies.push_back({"delta_two_to_32_in_range", 0xFFFFFFFFu, 16,
                      uint32_t(edges.size()), Encode(edges)});
  }
  // The same delta of 2^31 lands on set m when m = 2^31.
  bodies.push_back({"delta_two_to_32_reaches_m", 1u << 31, 16, 2,
                    {0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x01}});
  // Set ids below 0, at m, at kNoSet, and the out-of-range repro (64
  // edges, m = n = 16, ids of 5000 and above); an element at n.
  bodies.push_back(Spliced("set_below_zero", kM, kN, 0, Pair({0x03}, {0x07})));
  {
    Rng rng(3);
    std::vector<Edge> edges = RandomEdges(rng, 3000, kM, kN);
    edges[1777].set = kM;
    bodies.push_back({"set_at_m", kM, kN, 3000, Encode(edges)});
    edges[1777].set = kNoSet;
    bodies.push_back({"set_at_no_set", kM, kN, 3000, Encode(edges)});
    edges[1777] = {7, kN};
    bodies.push_back({"element_at_n", kM, kN, 3000, Encode(edges)});
  }
  {
    std::vector<Edge> edges;
    for (uint32_t i = 0; i < 64; ++i) edges.push_back({i % 16, i % 16});
    edges[40] = {5000, 5001};
    bodies.push_back({"ids_of_5000_in_16_by_16", 16, 16, 64, Encode(edges)});
  }
  // Payloads that end late or early.
  {
    Rng rng(5);
    const std::vector<uint8_t> payload =
        Encode(RandomEdges(rng, 1200, kM, kN));
    Body leftover{"byte_left_over", kM, kN, 1200, payload};
    leftover.payload.push_back(0x00);
    bodies.push_back(leftover);
    Body inside{"ends_inside_a_varint", kM, kN, 1200, payload};
    inside.payload.back() |= 0x80;
    bodies.push_back(inside);
    bodies.push_back({"one_pair_short", kM, kN, 1201, payload});
    // A count far past the payload's pairs: the decode must still take
    // every pair the payload holds before it reports the damage.
    bodies.push_back({"half_the_pairs_missing", kM, kN, 4096, payload});
    Body cut{"ends_between_delta_and_element", kM, kN, 1201, payload};
    cut.payload.push_back(0x02);
    bodies.push_back(cut);
  }
  // Legal payloads of exactly 16, 32 and 4096 bytes, and one byte over
  // each: one-byte varints, plus one 2-byte element for the odd sizes.
  for (size_t bytes : {size_t{16}, size_t{17}, size_t{32}, size_t{33},
                       size_t{4096}, size_t{4097}}) {
    Body body{"payload_of_" + std::to_string(bytes) + "_bytes", 256, 256, 0,
              {}};
    if (bytes % 2 != 0) {
      body.payload = {0x00, 0xC8, 0x01};  // set 0, element 200
      body.count = 1;
    }
    Rng rng(bytes);
    while (body.payload.size() < bytes) {
      body.payload.push_back(0x00);
      body.payload.push_back(uint8_t(rng.Next64() % 128));
      ++body.count;
    }
    bodies.push_back(body);
  }
  return bodies;
}

bool IsLegal(const std::string& name) {
  return name == "six_byte_element" || name == "six_byte_delta" ||
         name == "ten_byte_element" || name == "two_byte_zero" ||
         name == "five_byte_zero" || name == "delta_two_to_32_in_range" ||
         name.rfind("payload_of_", 0) == 0;
}

class HostileBody : public testing::TestWithParam<Body> {};

TEST_P(HostileBody, KernelMatchesScalarAtEveryTier) {
  const Body& body = GetParam();
  ExpectKernelMatchesScalar(body.payload, body.count, body.name);
}

TEST_P(HostileBody, ChunkDecodesAsTheScalarTierAtEveryTier) {
  const Body& body = GetParam();
  ExpectEveryTierMatchesScalar(body, body.name);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HostileBody, testing::ValuesIn(HostileBodies()),
    [](const testing::TestParamInfo<Body>& info) { return info.param.name; });

// The verdicts behind the cases above, so a reader (and a regression)
// sees which hostile bodies are legal.
TEST(HostilePayload, VerdictsAreTheFormatsOwn) {
  for (const Body& body : HostileBodies()) {
    EXPECT_EQ(Reference(body).has_value(), IsLegal(body.name)) << body.name;
  }
}

/// Seeded mutations of a valid body: bit flips, bytes forced to 0x00,
/// 0x80 or 0xFF, inserted or deleted bytes, runs of up to 200 bytes
/// with their continuation bits set (too few terminators for the
/// kernel's chain cuts), and cuts. In memory for the kernel; through
/// real files, CRCs re-stamped, for the chunk decoder.
std::vector<uint8_t> Mutate(Rng& rng, std::vector<uint8_t> payload) {
  const size_t edits = 1 + rng.Next64() % 3;
  for (size_t e = 0; e < edits && !payload.empty(); ++e) {
    const size_t at = rng.Next64() % payload.size();
    switch (rng.Next64() % 8) {
      case 0:
        payload[at] ^= uint8_t(1u << (rng.Next64() % 8));
        break;
      case 1:
        payload[at] = 0x00;
        break;
      case 2:
        payload[at] = 0x80;
        break;
      case 3:
        payload[at] = 0xFF;
        break;
      case 4:
        payload.insert(payload.begin() + long(at), uint8_t(rng.Next64()));
        break;
      case 5:
        payload.erase(payload.begin() + long(at));
        break;
      case 6:
        for (size_t i = at; i < payload.size() && i < at + 200; ++i) {
          payload[i] |= 0x80;
        }
        break;
      default:
        payload.resize(at);
        break;
    }
  }
  return payload;
}

TEST(HostilePayload, SeededKernelMutationsMatchScalarAtEveryTier) {
  Rng rng(20150306);
  for (int round = 0; round < 2000; ++round) {
    const uint32_t m = round % 3 == 0 ? 64 : 1u << 17;
    const uint32_t n = round % 2 == 0 ? 100 : 4096;
    const size_t count = 1 + rng.Next64() % 4096;
    const std::vector<uint8_t> payload =
        Mutate(rng, Encode(RandomEdges(rng, count, m, n)));
    // Every third budget asks for more pairs than the payload holds.
    const size_t budget = count + (round % 3 == 0 ? rng.Next64() % 3000 : 0);
    ExpectKernelMatchesScalar(payload, budget,
                              "mutation " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

TEST(HostilePayload, SeededChunkMutationsMatchScalarAtEveryTier) {
  Rng rng(1503);
  for (int round = 0; round < 120; ++round) {
    const uint32_t m = round % 3 == 0 ? 64 : 1u << 17;
    const uint32_t n = round % 2 == 0 ? 100 : 4096;
    const uint32_t count = uint32_t(1 + rng.Next64() % 4096);
    Body body{"mutation", m, n, count,
              Mutate(rng, Encode(RandomEdges(rng, count, m, n)))};
    ExpectEveryTierMatchesScalar(body, "mutation_" + std::to_string(round));
  }
}

// The out-of-range repro — a CRC-valid 64-edge file with m = n = 16 and
// ids of 5000 and above — through engine::Execute for every algorithm
// and format: the run ends degraded with one corrupt record and no
// edge delivered, instead of an algorithm indexing past its state.
class OutOfRangeReplay
    : public testing::TestWithParam<std::tuple<std::string, StreamFormat>> {};

TEST_P(OutOfRangeReplay, EndsDegradedWithOneCorruptRecord) {
  const auto& [algorithm, format] = GetParam();
  EdgeStream stream;
  stream.meta = {16, 16, 64};
  for (uint32_t i = 0; i < 64; ++i) stream.edges.push_back({5000 + i, 5000 + i});
  std::string tag = algorithm + "_v" + std::to_string(uint32_t(format));
  const std::string path = TempPath(tag + ".bin");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, path, format, &error)) << error;

  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = 5;
  config.source = engine::SourceSpec::File(path);
  const engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.corrupt_records_skipped, 1u);
  EXPECT_EQ(report.edges_delivered, 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgorithmAndFormat, OutOfRangeReplay,
    testing::Combine(testing::ValuesIn(RegisteredAlgorithmNames()),
                     testing::Values(StreamFormat::kV1, StreamFormat::kV2,
                                     StreamFormat::kV3)),
    [](const testing::TestParamInfo<OutOfRangeReplay::ParamType>& info) {
      std::string name = std::get<0>(info.param) + "_v" +
                         std::to_string(uint32_t(std::get<1>(info.param)));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace setcover
