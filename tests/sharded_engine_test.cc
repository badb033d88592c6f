// Shard-count invariance — the acceptance bar for engine::Execute at
// backend.workers = W. For every shardable algorithm:
// (a) a W=1 sharded run is bit-identical to engine::Execute on the
// same config; (b) at W in {2, 4, 7} the merged cover validates, stays
// within the deterministic protocol's 2*sqrt(n*W) factor of greedy on
// a Table-1 planted instance, and the merge's largest message stays
// within the recorded O~(n) bound; (c) kill-and-resume mid-ingest
// through the ONE aggregate checkpoint file reproduces the unkilled
// run byte-for-byte. Plus: thread-count invisibility, file/in-memory
// agreement, the fast loops against the supervised path under every
// owner, the partitioner seam, the certificate merge against its
// reference candidate build, and the sharded checkpoint format itself.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "comm/deterministic_protocol.h"
#include "comm/protocol.h"
#include "core/registry.h"
#include "engine/engine.h"
#include "engine/shards.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "offline/greedy.h"
#include "run/checkpoint.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/math.h"
#include "util/rng.h"

namespace setcover {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

/// A Table-1-style planted instance: known OPT, decoy sets, enough
/// edges that every shard of a W=7 split still sees a few hundred.
Fixture MakePlantedFixture(uint64_t seed) {
  Rng rng(seed);
  PlantedCoverParams p;
  p.num_elements = 120;
  p.num_sets = 600;
  p.planted_cover_size = 6;
  Fixture fixture{GeneratePlantedCover(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  return fixture;
}

// PID-qualified: the forced-SIMD-tier ctest matrix runs several
// instances of this binary concurrently on the same TempDir.
std::string TempPath(const std::string& tag) {
  std::string name = "sharded_" + std::to_string(getpid()) + "_" + tag;
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

engine::RunConfig BaseConfig(const std::string& algorithm,
                             const EdgeStream& stream, uint32_t shards) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(stream);
  config.backend.workers = shards;
  return config;
}

void ExpectSameSolution(const engine::RunReport& actual,
                        const engine::RunReport& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.solution.cover, expected.solution.cover) << context;
  EXPECT_EQ(actual.solution.certificate, expected.solution.certificate)
      << context;
  EXPECT_EQ(actual.edges_delivered, expected.edges_delivered) << context;
  EXPECT_EQ(actual.current_words, expected.current_words) << context;
  EXPECT_EQ(actual.uncovered_elements, expected.uncovered_elements)
      << context;
}

class ShardedSweep : public testing::TestWithParam<std::string> {};

// (a) W=1: no shard filter, no merge — the run must be bit-identical
// to the unsharded engine: covers, certificates, counters, meter
// readings.
TEST_P(ShardedSweep, SingleShardIsBitIdenticalToExecute) {
  Fixture fixture = MakePlantedFixture(301);
  engine::RunConfig config = BaseConfig(GetParam(), fixture.stream, 1);

  engine::RunConfig unsharded = config;
  unsharded.backend = engine::BackendSpec{};
  engine::RunReport expected = engine::Execute(unsharded);
  ASSERT_TRUE(expected.completed) << expected.error;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;

  ExpectSameSolution(report, expected, GetParam());
  EXPECT_EQ(report.algorithm_name, expected.algorithm_name);
  EXPECT_EQ(report.meter_breakdown, expected.meter_breakdown);
  EXPECT_EQ(report.stages.batches, expected.stages.batches);
#ifdef NDEBUG
  EXPECT_EQ(report.peak_words, expected.peak_words);
#endif
  EXPECT_EQ(report.sharded.shards, 1u);
  ASSERT_EQ(report.sharded.shard_edges.size(), 1u);
  EXPECT_EQ(report.sharded.shard_edges[0], fixture.stream.size());
}

// (b) W in {2, 4, 7}: the merged cover is a valid cover of the full
// instance, within the protocol's 2*sqrt(n*W) factor of greedy (greedy
// >= OPT, so this is implied by the paper's 2*sqrt(n*t)*OPT bound), and
// the merge's largest message stays within the recorded O~(n) bound.
TEST_P(ShardedSweep, MergedCoverAndMessageWithinProtocolBounds) {
  Fixture fixture = MakePlantedFixture(311);
  const size_t greedy_size = GreedyCover(fixture.instance).cover.size();
  const uint32_t n = fixture.instance.NumElements();

  for (uint32_t shards : {2u, 4u, 7u}) {
    const std::string context =
        GetParam() + " W=" + std::to_string(shards);
    engine::RunConfig config =
        BaseConfig(GetParam(), fixture.stream, shards);
    config.validate = &fixture.instance;
    engine::RunReport report = engine::Execute(config);

    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    ASSERT_TRUE(report.validated) << context;
    EXPECT_TRUE(report.validation.ok)
        << context << ": " << report.validation.error;
    EXPECT_EQ(report.uncovered_elements, 0u) << context;
    EXPECT_EQ(report.edges_delivered, fixture.stream.size()) << context;

    const double factor = 2.0 * std::sqrt(double(n) * double(shards));
    EXPECT_LE(double(report.solution.cover.size()),
              factor * double(greedy_size))
        << context;

    const auto& stats = report.sharded;
    EXPECT_EQ(stats.shards, shards) << context;
    EXPECT_GT(stats.message_words_bound, 0u) << context;
    EXPECT_LE(stats.max_message_words, stats.message_words_bound) << context;
    EXPECT_EQ(stats.threshold_sets + stats.patched_sets,
              report.solution.cover.size())
        << context;
    ASSERT_EQ(stats.shard_edges.size(), shards) << context;
    EXPECT_EQ(std::accumulate(stats.shard_edges.begin(),
                              stats.shard_edges.end(), uint64_t{0}),
              fixture.stream.size())
        << context;
  }
}

// (c) Kill-and-resume mid-ingest: a sharded run killed after k edges
// per shard, then resumed from the ONE aggregate checkpoint file, must
// finish byte-for-byte identical to the unkilled sharded run — at
// every W, including W=7 where the slices are lopsided.
TEST_P(ShardedSweep, KillAndResumeReproducesUnkilledRun) {
  Fixture fixture = MakePlantedFixture(301);
  const std::string path = TempPath("resume_" + GetParam() + ".scsh");

  for (uint32_t shards : {2u, 4u, 7u}) {
    const std::string context =
        GetParam() + " W=" + std::to_string(shards);
    engine::RunConfig base =
        BaseConfig(GetParam(), fixture.stream, shards);
    engine::RunReport expected = engine::Execute(base);
    ASSERT_TRUE(expected.completed) << context << ": " << expected.error;

    engine::RunConfig kill = base;
    kill.checkpoint.path = path;
    kill.checkpoint.every = 10;
    kill.stop_after = 25;  // every shard holds hundreds of edges
    engine::RunReport killed = engine::Execute(kill);
    ASSERT_TRUE(killed.error.empty()) << context << ": " << killed.error;
    ASSERT_FALSE(killed.completed) << context;
    ASSERT_GE(killed.checkpoints_written, uint64_t{shards}) << context;
    std::string error;
    const std::optional<ShardedCheckpoint> slots =
        LoadShardedCheckpoint(path, &error);
    ASSERT_TRUE(slots.has_value()) << context << ": " << error;
    uint64_t earliest = UINT64_MAX;
    for (const std::optional<Checkpoint>& slot : slots->shard_states) {
      ASSERT_TRUE(slot.has_value()) << context;
      earliest = std::min<uint64_t>(earliest, slot->stream_position);
    }

    engine::RunConfig resume = base;
    resume.options.seed = 999;  // must be ignored: state is on disk
    resume.checkpoint.path = path;
    resume.checkpoint.every = 10;
    resume.checkpoint.resume = true;
    engine::RunReport resumed = engine::Execute(resume);
    ASSERT_TRUE(resumed.completed) << context << ": " << resumed.error;
    EXPECT_TRUE(resumed.resumed) << context;
    // Every slot position indexes the whole stream; the run reports the
    // earliest, where its slowest shard picked up.
    EXPECT_LE(resumed.resumed_at, fixture.stream.size()) << context;
    EXPECT_EQ(resumed.resumed_at, earliest) << context;
    ExpectSameSolution(resumed, expected, context);
    EXPECT_EQ(resumed.sharded.shard_cover_sizes,
              expected.sharded.shard_cover_sizes)
        << context;
  }
  std::remove(path.c_str());
}

// The W > 1 fast loops against the supervised reference, under every
// owner the fast loops specialise on: the mask (W = 2, 4, 8), the
// modulo (W = 3) and a custom partitioner (W = 3), from memory and from
// a v3 file. A kill switch past the end of the stream sends the same
// config through Drive + ShardFilterSource, which cuts each shard's
// slice at the same batch boundaries, so every report field those
// boundaries reach must agree.
TEST_P(ShardedSweep, FastLoopMatchesSupervisedAtEveryOwner) {
  Rng rng(331);
  PlantedCoverParams p;
  p.num_elements = 2048;
  p.num_sets = 28672;
  p.planted_cover_size = 8;
  Fixture fixture{GeneratePlantedCover(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  const std::string path = TempPath("owners_" + GetParam() + ".bin");
  std::string error;
  ASSERT_TRUE(
      WriteStreamFile(fixture.stream, path, StreamFormat::kV3, &error))
      << error;

  engine::ShardPartitioner set_div;
  set_div.name = "set-div";
  set_div.index = [](SetId s, uint32_t shards) { return (s / 7) % shards; };
  const std::pair<uint32_t, engine::ShardPartitioner> owners[] = {
      {2, engine::SetModuloPartitioner()},
      {3, engine::SetModuloPartitioner()},
      {4, engine::SetModuloPartitioner()},
      {8, engine::SetModuloPartitioner()},
      {3, set_div},
  };
  for (const bool from_file : {false, true}) {
    for (const auto& [shards, partitioner] : owners) {
      const std::string context = GetParam() + " W=" +
                                  std::to_string(shards) + " " +
                                  partitioner.name +
                                  (from_file ? " file" : " memory");
      engine::RunConfig fast =
          BaseConfig(GetParam(), fixture.stream, shards);
      fast.backend.partitioner = partitioner;
      if (from_file) fast.source = engine::SourceSpec::File(path);
      engine::RunConfig supervised = fast;
      supervised.stop_after = fixture.stream.size() + 1;

      const engine::RunReport expected = engine::Execute(supervised);
      ASSERT_TRUE(expected.completed) << context << ": " << expected.error;
      const engine::RunReport report = engine::Execute(fast);
      ASSERT_TRUE(report.completed) << context << ": " << report.error;

      EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
      EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
          << context;
      EXPECT_EQ(report.peak_words, expected.peak_words) << context;
      EXPECT_EQ(report.stages.batches, expected.stages.batches) << context;
      EXPECT_EQ(report.sharded.shard_edges, expected.sharded.shard_edges)
          << context;
      EXPECT_EQ(report.sharded.max_message_words,
                expected.sharded.max_message_words)
          << context;
      if (shards == 8) {
        ASSERT_GE(*std::min_element(report.sharded.shard_edges.begin(),
                                    report.sharded.shard_edges.end()),
                  3 * kIngestBatchEdges)
            << context;
      }
    }
  }
  std::remove(path.c_str());
}

// The thread-pool width is an execution detail: W=4 shards on 1 thread
// and on 4 threads must produce identical reports.
TEST_P(ShardedSweep, ThreadCountIsObservationallyInvisible) {
  Fixture fixture = MakePlantedFixture(301);
  engine::RunConfig wide = BaseConfig(GetParam(), fixture.stream, 4);
  wide.backend.threads = 4;
  engine::RunConfig narrow = wide;
  narrow.backend.threads = 1;

  engine::RunReport a = engine::Execute(wide);
  engine::RunReport b = engine::Execute(narrow);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  ExpectSameSolution(a, b, GetParam());
  EXPECT_EQ(a.peak_words, b.peak_words) << GetParam();
  EXPECT_EQ(a.sharded.max_message_words, b.sharded.max_message_words)
      << GetParam();
}

std::string TestName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(ShardableAlgorithms, ShardedSweep,
                         testing::ValuesIn(ShardableAlgorithmNames()),
                         TestName);

// File-backed sharded runs (each shard cursoring the same mmap'd v3
// file) must agree with the in-memory sharded run over the same edges.
TEST(ShardedEngineTest, FileShardsMatchInMemoryShards) {
  Fixture fixture = MakePlantedFixture(301);
  const std::string path = TempPath("file_v3.bin");
  std::string error;
  ASSERT_TRUE(
      WriteStreamFile(fixture.stream, path, StreamFormat::kV3, &error))
      << error;

  engine::RunConfig in_memory = BaseConfig("kk", fixture.stream, 4);
  engine::RunReport expected = engine::Execute(in_memory);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig from_file = in_memory;
  from_file.source = engine::SourceSpec::File(path);
  engine::RunReport report = engine::Execute(from_file);
  ASSERT_TRUE(report.completed) << report.error;
  ExpectSameSolution(report, expected, "file");
  EXPECT_EQ(report.sharded.max_message_words,
            expected.sharded.max_message_words);
  std::remove(path.c_str());
}

// The partitioner seam: a custom pure function routes sets differently
// but the merged result must still be a valid cover, and its name is
// enforced on resume.
TEST(ShardedEngineTest, CustomPartitionerRunsAndGuardsResume) {
  Fixture fixture = MakePlantedFixture(301);
  engine::RunConfig config = BaseConfig("kk", fixture.stream, 3);
  config.backend.partitioner.name = "set-div";
  config.backend.partitioner.index = [](SetId s, uint32_t shards) {
    return (s / 7) % shards;
  };
  config.validate = &fixture.instance;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.validation.ok) << report.validation.error;

  // Write a checkpoint under the custom partitioner, then try to resume
  // under the default one: refused, the cursors would replay the wrong
  // slices.
  const std::string path = TempPath("partitioner.scsh");
  engine::RunConfig kill = config;
  kill.validate = nullptr;
  kill.checkpoint.path = path;
  kill.checkpoint.every = 10;
  kill.stop_after = 25;
  ASSERT_TRUE(engine::Execute(kill).error.empty());

  engine::RunConfig wrong = kill;
  wrong.stop_after = 0;
  wrong.checkpoint.resume = true;
  wrong.backend.partitioner = engine::SetModuloPartitioner();
  engine::RunReport refused = engine::Execute(wrong);
  EXPECT_FALSE(refused.completed);
  EXPECT_NE(refused.error.find("partitioned by 'set-div'"),
            std::string::npos)
      << refused.error;
  std::remove(path.c_str());
}

// Resuming a W=4 checkpoint at W=2 is refused — the slot cursors only
// mean anything at the W they were written at.
TEST(ShardedEngineTest, ResumeAtDifferentShardCountIsRefused) {
  Fixture fixture = MakePlantedFixture(301);
  const std::string path = TempPath("wrong_w.scsh");
  engine::RunConfig kill = BaseConfig("kk", fixture.stream, 4);
  kill.checkpoint.path = path;
  kill.checkpoint.every = 10;
  kill.stop_after = 25;
  ASSERT_TRUE(engine::Execute(kill).error.empty());

  engine::RunConfig wrong = BaseConfig("kk", fixture.stream, 2);
  wrong.checkpoint.path = path;
  wrong.checkpoint.resume = true;
  engine::RunReport refused = engine::Execute(wrong);
  EXPECT_FALSE(refused.completed);
  EXPECT_NE(refused.error.find("4-shard run"), std::string::npos)
      << refused.error;
  std::remove(path.c_str());
}

// Non-shardable algorithms are rejected with the registry's actionable
// diagnostic; a pre-built instance is rejected too (each shard must own
// its algorithm object).
TEST(ShardedEngineTest, RejectsNonShardableAndInstanceConfigs) {
  Fixture fixture = MakePlantedFixture(301);
  engine::RunConfig config =
      BaseConfig("store-everything-greedy", fixture.stream, 2);
  engine::RunReport report = engine::Execute(config);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.error.find("not shardable"), std::string::npos)
      << report.error;
  EXPECT_NE(report.error.find("kk"), std::string::npos) << report.error;

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 1});
  engine::RunConfig with_instance = BaseConfig("", fixture.stream, 2);
  with_instance.algorithm_instance = algorithm.get();
  engine::RunReport rejected = engine::Execute(with_instance);
  EXPECT_FALSE(rejected.completed);
  EXPECT_NE(rejected.error.find("registry algorithm name"),
            std::string::npos)
      << rejected.error;
}

// The "SCSH" aggregate format round-trips any combination of present
// and missing slots, and rejects damaged bytes instead of resuming
// from garbage.
TEST(ShardedCheckpointTest, RoundTripAndDamageRejection) {
  ShardedCheckpoint aggregate;
  aggregate.shards = 3;
  aggregate.partitioner = "set-mod";
  aggregate.shard_states.resize(3);
  Checkpoint slot;
  slot.algorithm_name = "kk";
  slot.meta = StreamMetadata{60, 80, 240};
  slot.stream_position = 120;
  slot.edges_delivered = 40;
  slot.session_sequence = 7;
  slot.state_words = {1, 2, 3, 0xdeadbeefULL};
  aggregate.shard_states[0] = slot;
  slot.stream_position = 121;
  aggregate.shard_states[2] = slot;  // slot 1 stays missing

  const std::string path = TempPath("roundtrip.scsh");
  std::string error;
  ASSERT_TRUE(SaveShardedCheckpoint(aggregate, path, &error)) << error;
  std::optional<ShardedCheckpoint> loaded =
      LoadShardedCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->shards, 3u);
  EXPECT_EQ(loaded->partitioner, "set-mod");
  ASSERT_EQ(loaded->shard_states.size(), 3u);
  ASSERT_TRUE(loaded->shard_states[0].has_value());
  EXPECT_FALSE(loaded->shard_states[1].has_value());
  ASSERT_TRUE(loaded->shard_states[2].has_value());
  EXPECT_EQ(loaded->shard_states[0]->stream_position, 120u);
  EXPECT_EQ(loaded->shard_states[2]->stream_position, 121u);
  EXPECT_EQ(loaded->shard_states[0]->state_words, slot.state_words);
  EXPECT_EQ(loaded->shard_states[0]->session_sequence, 7u);

  // Slot count must match the shard count on save.
  ShardedCheckpoint lopsided = aggregate;
  lopsided.shard_states.resize(2);
  EXPECT_FALSE(SaveShardedCheckpoint(lopsided, path + ".bad", &error));

  // Flip one byte in the middle: the CRC must reject the file.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  in.close();
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  out.close();
  EXPECT_FALSE(LoadShardedCheckpoint(path, &error).has_value());
  EXPECT_FALSE(error.empty());

  // A single-run "SCKP" file is not a sharded checkpoint.
  const std::string single_path = TempPath("single.sckp");
  ASSERT_TRUE(SaveCheckpoint(slot, single_path, &error)) << error;
  EXPECT_FALSE(LoadShardedCheckpoint(single_path, &error).has_value());

  std::remove(path.c_str());
  std::remove((path + ".bad").c_str());
  std::remove(single_path.c_str());
}

// The reference candidate build for MergeCertificates: a hash map from
// set to candidate, one element vector per candidate, and FromSets.
// The merge must reproduce it exactly.
engine::internal::CertificateMerge ReferenceMerge(
    const std::vector<const CoverSolution*>& locals, uint32_t parties,
    uint32_t merge_threshold_override) {
  engine::internal::CertificateMerge merge;
  const uint32_t n = uint32_t(locals.empty() ? 0
                                             : locals[0]->certificate.size());
  std::vector<std::vector<ElementId>> candidate_elems;
  std::vector<SetId> candidate_set;
  std::vector<uint32_t> candidate_owner;
  std::unordered_map<SetId, size_t> candidate_index;
  for (uint32_t w = 0; w < locals.size(); ++w) {
    const std::vector<SetId>& certificate = locals[w]->certificate;
    for (ElementId u = 0; u < certificate.size(); ++u) {
      const SetId s = certificate[u];
      if (s == kNoSet) continue;
      auto [it, inserted] =
          candidate_index.try_emplace(s, candidate_elems.size());
      if (inserted) {
        candidate_elems.emplace_back();
        candidate_set.push_back(s);
        candidate_owner.push_back(w);
      }
      candidate_elems[it->second].push_back(u);
    }
  }
  const uint32_t tau =
      merge_threshold_override != 0
          ? merge_threshold_override
          : std::max<uint32_t>(1, uint32_t(ISqrt(uint64_t(n) * parties)));
  merge.merge_threshold = tau;
  merge.message_words_bound =
      BitsToWords(n) + n + (tau > 0 ? (n + tau - 1) / tau : 0);
  merge.solution.certificate.assign(n, kNoSet);
  if (candidate_elems.empty()) return merge;
  SetCoverInstance merged =
      SetCoverInstance::FromSets(n, std::move(candidate_elems));
  DeterministicProtocolResult protocol =
      RunDeterministicProtocol(merged, candidate_owner, parties, tau);
  merge.max_message_words = protocol.max_message_words;
  merge.threshold_sets = protocol.threshold_sets;
  merge.patched_sets = protocol.patched_sets;
  for (SetId candidate : protocol.solution.cover) {
    merge.solution.cover.push_back(candidate_set[candidate]);
  }
  for (ElementId u = 0; u < n; ++u) {
    const SetId candidate = protocol.solution.certificate[u];
    if (candidate != kNoSet) {
      merge.solution.certificate[u] = candidate_set[candidate];
    }
  }
  return merge;
}

void ExpectSameMerge(const engine::internal::CertificateMerge& actual,
                     const engine::internal::CertificateMerge& expected,
                     const std::string& context) {
  EXPECT_EQ(actual.solution.cover, expected.solution.cover) << context;
  EXPECT_EQ(actual.solution.certificate, expected.solution.certificate)
      << context;
  EXPECT_EQ(actual.merge_threshold, expected.merge_threshold) << context;
  EXPECT_EQ(actual.threshold_sets, expected.threshold_sets) << context;
  EXPECT_EQ(actual.patched_sets, expected.patched_sets) << context;
  EXPECT_EQ(actual.max_message_words, expected.max_message_words)
      << context;
  EXPECT_EQ(actual.message_words_bound, expected.message_words_bound)
      << context;
}

// Random party certificates over the set-modulo partition: party w
// certifies elements with sets w, w + W, w + 2W, ... drawn from a pool
// of `pool` sets, leaving `no_set_percent` of its elements uncertified.
// Pool 1 gives single-set certificates, 100% gives all-kNoSet ones.
TEST(MergeCertificatesTest, MatchesReferenceOnRandomCertificates) {
  Rng rng(347);
  const std::pair<uint32_t, uint32_t> shapes[] = {
      {1, 0}, {1, 40}, {3, 10}, {64, 25}, {1u << 20, 0}, {1u << 20, 100},
  };
  for (uint32_t parties : {2u, 3u, 4u, 8u}) {
    for (uint32_t n : {0u, 1u, 63u, 64u, 1000u}) {
      for (const auto& [pool, no_set_percent] : shapes) {
        std::vector<CoverSolution> solutions(parties);
        for (uint32_t w = 0; w < parties; ++w) {
          solutions[w].certificate.resize(n);
          for (SetId& s : solutions[w].certificate) {
            s = rng.UniformInt(100) < no_set_percent
                    ? kNoSet
                    : SetId(w + parties * rng.UniformInt(pool));
          }
        }
        std::vector<const CoverSolution*> locals;
        for (const CoverSolution& solution : solutions) {
          locals.push_back(&solution);
        }
        for (uint32_t tau : {0u, 2u}) {
          const std::string context =
              "W=" + std::to_string(parties) + " n=" + std::to_string(n) +
              " pool=" + std::to_string(pool) +
              " no_set=" + std::to_string(no_set_percent) +
              "% tau=" + std::to_string(tau);
          ExpectSameMerge(
              engine::internal::MergeCertificates(locals, parties, tau),
              ReferenceMerge(locals, parties, tau), context);
        }
      }
    }
  }
}

// The merge does not rely on the parties' sets being disjoint (a pure
// partitioner always makes them so): a set certified by two parties is
// one candidate, owned by the first party that certified it, holding
// every element either party certified.
TEST(MergeCertificatesTest, SetCertifiedByTwoPartiesIsOneCandidate) {
  std::vector<CoverSolution> solutions(2);
  solutions[0].certificate = {4, 4, 6, 6, 6, 6, kNoSet, kNoSet};
  solutions[1].certificate = {kNoSet, kNoSet, 4, 4, kNoSet, kNoSet, 5, 5};
  const std::vector<const CoverSolution*> locals = {&solutions[0],
                                                    &solutions[1]};
  const engine::internal::CertificateMerge merge =
      engine::internal::MergeCertificates(locals, 2, 0);
  ExpectSameMerge(merge, ReferenceMerge(locals, 2, 0), "shared set");
  // τ = √16 = 4. Set 4 is party 0's and holds elements 0–3, two of them
  // certified by party 1, so party 0's turn takes it and set 6 no
  // longer clears τ; owned by party 1, set 4 would lose to set 6.
  EXPECT_EQ(merge.merge_threshold, 4u);
  EXPECT_EQ(merge.solution.cover, (std::vector<SetId>{4, 6, 5}));
  EXPECT_EQ(merge.solution.certificate,
            (std::vector<SetId>{4, 4, 4, 4, 6, 6, 5, 5}));
  EXPECT_EQ(merge.threshold_sets, 1u);
  EXPECT_EQ(merge.patched_sets, 2u);
}

}  // namespace
}  // namespace setcover
