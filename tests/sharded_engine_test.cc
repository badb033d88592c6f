// Shard-count invariance — the acceptance bar for engine::Execute at
// backend.workers = W. For every shardable algorithm:
// (a) a W=1 sharded run is bit-identical to engine::Execute on the
// same config; (b) at W in {2, 4, 7} the merged cover validates, stays
// within the deterministic protocol's 2*sqrt(n*W) factor of greedy on
// a Table-1 planted instance, and the merge's largest message stays
// within the recorded O~(n) bound; (c) kill-and-resume mid-ingest
// through the ONE checkpoint file reproduces the unkilled run
// byte-for-byte. Plus: file/in-memory agreement, the fast loops against
// the supervised path under every owner of the set-modulo split, the
// W guard on resume, shard threads that outlive the job, the
// certificate merge against its reference candidate build, and the
// W-slot checkpoint format itself.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
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

// (c) Kill-and-resume mid-ingest: a run killed at stream position
// ⌈N/2⌉, then resumed from the ONE checkpoint file (W slots), must
// finish byte-for-byte identical to the unkilled run — at every W,
// including W=7 where the slices are lopsided. The kill point
// means the same at every W: the shards stop at one stream prefix, so
// together they took exactly its ⌈N/2⌉ edges.
TEST_P(ShardedSweep, KillAndResumeReproducesUnkilledRun) {
  Fixture fixture = MakePlantedFixture(301);
  const std::string path = TempPath("resume_" + GetParam() + ".sckp");
  const uint64_t half = (fixture.stream.size() + 1) / 2;

  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    const std::string context =
        GetParam() + " W=" + std::to_string(shards);
    engine::RunConfig base =
        BaseConfig(GetParam(), fixture.stream, shards);
    engine::RunReport expected = engine::Execute(base);
    ASSERT_TRUE(expected.completed) << context << ": " << expected.error;

    engine::RunConfig kill = base;
    kill.checkpoint.path = path;
    kill.checkpoint.every = 10;
    kill.stop_after = half;  // each shard is past its first checkpoints
    engine::RunReport killed = engine::Execute(kill);
    ASSERT_TRUE(killed.error.empty()) << context << ": " << killed.error;
    ASSERT_FALSE(killed.completed) << context;
    EXPECT_EQ(killed.edges_delivered, half) << context;
    ASSERT_GE(killed.checkpoints_written, uint64_t{shards}) << context;
    std::string error;
    uint64_t earliest = UINT64_MAX;
    const std::optional<ShardedCheckpoint> slots =
        LoadShardedCheckpoint(path, &error);
    ASSERT_TRUE(slots.has_value()) << context << ": " << error;
    ASSERT_EQ(slots->shards, shards) << context;
    for (const std::optional<Checkpoint>& slot : slots->shard_states) {
      ASSERT_TRUE(slot.has_value()) << context;
      EXPECT_LE(slot->stream_position, half) << context;
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
// owner the fast loops specialise on: the mask (W = 2, 4, 8) and the
// modulo (W = 3), from memory and from a v3 file. A kill switch past
// the end of the stream sends the same config through Drive +
// ShardFilterSource, which cuts each shard's slice at the same batch
// boundaries, so every report field those boundaries reach must agree.
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

  for (const bool from_file : {false, true}) {
    for (const uint32_t shards : {2u, 3u, 4u, 8u}) {
      const std::string context = GetParam() + " W=" +
                                  std::to_string(shards) +
                                  (from_file ? " file" : " memory");
      engine::RunConfig fast =
          BaseConfig(GetParam(), fixture.stream, shards);
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

// Resuming a checkpoint at another W is refused — the slot cursors
// only mean anything at the W they were written at — W = 1 included,
// whose file has the same format with one slot.
TEST(ShardedEngineTest, ResumeAtDifferentShardCountIsRefused) {
  Fixture fixture = MakePlantedFixture(301);
  const std::string path = TempPath("wrong_w.sckp");
  const std::pair<uint32_t, uint32_t> pairs[] = {{4, 2}, {4, 1}, {1, 2}};
  for (const auto& [written, resumed] : pairs) {
    const std::string context = "W=" + std::to_string(written) + " -> W=" +
                                std::to_string(resumed);
    engine::RunConfig kill = BaseConfig("kk", fixture.stream, written);
    kill.checkpoint.path = path;
    kill.checkpoint.every = 10;
    kill.stop_after = fixture.stream.size() / 2;
    ASSERT_TRUE(engine::Execute(kill).error.empty()) << context;

    engine::RunConfig wrong = BaseConfig("kk", fixture.stream, resumed);
    wrong.checkpoint.path = path;
    wrong.checkpoint.resume = true;
    engine::RunReport refused = engine::Execute(wrong);
    EXPECT_FALSE(refused.completed) << context;
    EXPECT_NE(refused.error.find("written by a " + std::to_string(written) +
                                 "-shard run"),
              std::string::npos)
        << context << ": " << refused.error;
  }
  std::remove(path.c_str());
}

// Threads of this process: the entries of /proc/self/task.
size_t TaskCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// A joined thread can stay listed for a moment after pthread_join
// returns, so counts that must drop are polled (up to 5 s).
size_t TaskCountSettlingAt(size_t expected) {
  size_t count = TaskCount();
  for (int poll = 0; poll < 500 && count != expected; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = TaskCount();
  }
  return count;
}

// A W > 1 job runs its shards on the calling thread's pool, which
// outlives the job: back-to-back jobs start no threads, a wider job
// rebuilds the pool once, and another thread gets a pool of its own
// that goes away with it. The scenario runs on a fresh thread, so the
// pool it watches starts empty whatever ran before in this process.
TEST(ShardedEngineTest, BackToBackJobsReuseShardThreads) {
  Fixture fixture = MakePlantedFixture(301);
  const engine::RunConfig w4 = BaseConfig("kk", fixture.stream, 4);
  const engine::RunConfig w7 = BaseConfig("kk", fixture.stream, 7);
  // A sanitizer runtime may start a helper thread at the process's
  // first thread start; let that happen before counting.
  const size_t initial = TaskCount();
  std::thread([] {}).join();
  const size_t before = TaskCountSettlingAt(initial);
  std::thread owner([&] {
    const size_t base = TaskCount();  // this thread counted in
    const engine::RunReport first4 = engine::Execute(w4);
    ASSERT_TRUE(first4.completed) << first4.error;
    // Three workers; the calling thread is the fourth lane.
    EXPECT_EQ(TaskCount(), base + 3);
    for (int job = 1; job < 20; ++job) {
      const engine::RunReport report = engine::Execute(w4);
      ASSERT_TRUE(report.completed) << report.error;
      ExpectSameSolution(report, first4, "W=4 job " + std::to_string(job));
      EXPECT_EQ(TaskCount(), base + 3) << "job " << job;
    }

    // A W = 7 job grows the pool once; narrower jobs keep it.
    const engine::RunReport first7 = engine::Execute(w7);
    ASSERT_TRUE(first7.completed) << first7.error;
    EXPECT_EQ(TaskCountSettlingAt(base + 6), base + 6);
    for (const engine::RunConfig* config : {&w7, &w4, &w7}) {
      const engine::RunReport report = engine::Execute(*config);
      ASSERT_TRUE(report.completed) << report.error;
      ExpectSameSolution(report, config == &w7 ? first7 : first4,
                         "after the W=7 rebuild");
      EXPECT_EQ(TaskCount(), base + 6);
    }

    // A second thread's jobs run on that thread's own pool.
    std::thread second([&] {
      for (int job = 0; job < 5; ++job) {
        const engine::RunReport report = engine::Execute(w4);
        ASSERT_TRUE(report.completed) << report.error;
        ExpectSameSolution(report, first4,
                           "second thread, job " + std::to_string(job));
        EXPECT_EQ(TaskCount(), base + 6 + 1 + 3) << "job " << job;
      }
    });
    second.join();
    EXPECT_EQ(TaskCountSettlingAt(base + 6), base + 6);
  });
  owner.join();
  EXPECT_EQ(TaskCountSettlingAt(before), before);
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

// The W-slot checkpoint format round-trips any combination of present
// and missing slots, and rejects damaged bytes instead of resuming
// from garbage.
TEST(ShardedCheckpointTest, RoundTripAndDamageRejection) {
  ShardedCheckpoint aggregate;
  aggregate.shards = 3;
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

  const std::string path = TempPath("roundtrip.sckp");
  std::string error;
  ASSERT_TRUE(SaveShardedCheckpoint(aggregate, path, &error)) << error;
  std::optional<ShardedCheckpoint> loaded =
      LoadShardedCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->shards, 3u);
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

  // A single pipeline's file is the same format with one slot.
  const std::string single_path = TempPath("single.sckp");
  ASSERT_TRUE(SaveCheckpoint(slot, single_path, &error)) << error;
  std::optional<ShardedCheckpoint> single =
      LoadShardedCheckpoint(single_path, &error);
  ASSERT_TRUE(single.has_value()) << error;
  EXPECT_EQ(single->shards, 1u);
  ASSERT_EQ(single->shard_states.size(), 1u);
  ASSERT_TRUE(single->shard_states[0].has_value());
  EXPECT_EQ(single->shard_states[0]->stream_position, 121u);
  EXPECT_EQ(single->shard_states[0]->state_words, slot.state_words);

  std::remove(path.c_str());
  std::remove((path + ".bad").c_str());
  std::remove(single_path.c_str());
}

// The reference candidate build for MergeCertificates: a hash map from
// set to candidate, one element vector per candidate, and FromSets.
// The merge must reproduce it exactly.
engine::internal::CertificateMerge ReferenceMerge(
    const std::vector<const CoverSolution*>& locals, uint32_t parties) {
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
      std::max<uint32_t>(1, uint32_t(ISqrt(uint64_t(n) * parties)));
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
        const std::string context =
            "W=" + std::to_string(parties) + " n=" + std::to_string(n) +
            " pool=" + std::to_string(pool) +
            " no_set=" + std::to_string(no_set_percent) + "%";
        ExpectSameMerge(engine::internal::MergeCertificates(locals, parties),
                        ReferenceMerge(locals, parties), context);
      }
    }
  }
}

// The merge does not rely on the parties' sets being disjoint (the
// set-modulo split always makes them so): a set certified by two
// parties is one candidate, owned by the first party that certified
// it, holding every element either party certified.
TEST(MergeCertificatesTest, SetCertifiedByTwoPartiesIsOneCandidate) {
  std::vector<CoverSolution> solutions(2);
  solutions[0].certificate = {4, 4, 6, 6, 6, 6, kNoSet, kNoSet};
  solutions[1].certificate = {kNoSet, kNoSet, 4, 4, kNoSet, kNoSet, 5, 5};
  const std::vector<const CoverSolution*> locals = {&solutions[0],
                                                    &solutions[1]};
  const engine::internal::CertificateMerge merge =
      engine::internal::MergeCertificates(locals, 2);
  ExpectSameMerge(merge, ReferenceMerge(locals, 2), "shared set");
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
